package repro.perfbench

import java.io.File
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Serving benchmark for OIPA: one client sends requests in a closed loop
  * (the next request leaves only after the previous one returned).
  *
  * {{{
  * Main --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--work-dir dir]
  * }}}
  *
  * A run sets the workload up several times (the first set-up also serves a
  * warm-up cycle) and reports the median as `setup_s`, then serves whole
  * request cycles for about `--seconds` of request time. Each
  * answer is checked outside the timed interval. With `--trace 1` the run
  * then sets up once more and serves at least two more cycles with spans,
  * Spark listener and GC counters on, and reports the per-layer metrics, the
  * self times and the tracing overhead instead of the end-to-end metrics.
  * The last line of standard output is the result object.
  */
object Main {

  final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean, workDir: File)

  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "work-dir")
    require(kv.keySet.subsetOf(known), s"unknown options: ${(kv.keySet -- known).mkString(", ")}")
    val trace = kv.getOrElse("trace", "0")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    Options(
      workload = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required")),
      seed = kv.getOrElse("seed", "1").toLong,
      seconds = kv.getOrElse("seconds", "20").toDouble,
      trace = trace == "1",
      workDir = new File(kv.getOrElse("work-dir", ".bench_build/run")))
  }

  def session(o: Options, cores: Int): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${o.workload}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      // The repository's jobs use 64 shuffle partitions by default.
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.local.dir", new File(o.workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(o.workDir, "warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val cores = Runtime.getRuntime.availableProcessors
    val spark = session(o, cores)
    val code =
      try {
        val out = Harness.run(spark, Workloads.make(o.workload, spark), o, cores)
        out.report.foreach(l => println(s"# $l"))
        println(out.json)
        0
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      } finally spark.stop()
    sys.exit(code)
  }
}

/** A metric as printed: name, value, unit. */
final case class Metric(name: String, value: Double, unit: String)

/** One served request: its cycle, request time, answers and check failures. */
final case class Served(id: Int, cycle: Int, ns: Long, answers: Seq[Answer], failures: Seq[String])

/** Requests served in one measured pass, with each cycle's request time. */
final case class Pass(served: Seq[Served], cycleNs: Seq[Long]) {
  def totalNs: Long = served.iterator.map(_.ns).sum
  def failed: Int = served.count(_.failures.nonEmpty)
  def answers: Seq[Answer] = served.flatMap(_.answers)
}

final case class Output(report: Seq[String], json: String)

object Harness {

  val SetupRepeats = 3
  val WarmUpCycle = -1

  def run(spark: SparkSession, w: Workload, o: Main.Options, cores: Int): Output = {
    val report = mutable.ArrayBuffer.empty[String]
    val plain = new Tracer(false)
    val tracer = new Tracer(o.trace)

    // Set-ups: (seconds, heap MiB after a full GC). The first one also
    // serves a warm-up cycle, so first-touch costs (JIT, Spark code
    // generation) land in set-up, not in requests. A traced run sets up
    // untraced, traced, untraced, and serves on the last data set.
    val setupTracers = if (o.trace) Seq(plain, tracer, plain) else Seq.fill(SetupRepeats)(plain)
    val up0 = Jvm.uptimeS
    val setups = setupTracers.zipWithIndex.map { case (t, i) =>
      val s = timeS {
        t.span("setup")(w.setup(t))
        if (i == 0) w.cycle(o.seed, WarmUpCycle).foreach(w.serve(_, plain))
      }
      (s, Jvm.heapAfterGcMb())
    }
    val up1 = Jvm.uptimeS
    val pass = measure(w, plain, o, minCycles = 1, None, spark)
    val up2 = Jvm.uptimeS
    val checks = w.runChecks(pass.answers)
    val e2e =
      if (o.trace) endToEnd(setups.last._1, setups.last._2, pass)
      else endToEnd(Stats.median(setups.map(_._1)), Stats.median(setups.map(_._2)), pass)

    var attempted = pass.served.size + checks.size
    var failed = pass.failed + checks.count(_.failures.nonEmpty)
    report += s"workload=${w.name} seed=${o.seed} seconds=${o.seconds} trace=${if (o.trace) 1 else 0}"
    report += s"spark master=${spark.sparkContext.master} cores=$cores driver_heap_max_mb=${fmt(Jvm.maxHeapMb)} " +
      s"shuffle_partitions=${spark.conf.get("spark.sql.shuffle.partitions")} spark=${spark.version} " +
      s"java=${System.getProperty("java.version")} clients=1 closed-loop"
    w.facts.foreach { case (k, v) => report += s"$k: $v" }
    report += s"setup_s each: ${setups.map(s => fmt(s._1)).mkString(", ")} (the first includes a warm-up cycle)"
    report += s"heap_setup_mb each: ${setups.map(s => fmt(s._2)).mkString(", ")}"
    report += s"requests=${pass.served.size} request_s=${fmt(pass.totalNs / 1e9)} " +
      s"cycle_s each: ${pass.cycleNs.map(ns => fmt(ns / 1e9)).mkString(", ")}"
    for (c <- checks) report += s"check '${c.name}': ${if (c.failures.isEmpty) "ok" else c.failures.mkString("; ")}"
    report += s"JVM uptime at first set-up ${fmt(up0)} s, after set-ups ${fmt(up1)} s, after the pass ${fmt(up2)} s, " +
      s"after checks ${fmt(Jvm.uptimeS)} s"
    pass.served.filter(_.failures.nonEmpty).take(5)
      .foreach(s => report += s"request ${s.id} failed: ${s.failures.mkString("; ")}")

    val metrics =
      if (!o.trace) e2e
      else {
        val counters = new SparkCounters
        spark.sparkContext.addSparkListener(counters)
        val traced = measure(w, tracer, o, minCycles = 2, Some(counters), spark)
        spark.sparkContext.removeSparkListener(counters)
        val heapAfterRun = Jvm.heapAfterGcMb()
        attempted += traced.served.size
        failed += traced.failed
        traced.served.filter(_.failures.nonEmpty).take(5)
          .foreach(s => report += s"traced request ${s.id} failed: ${s.failures.mkString("; ")}")
        val file = new File(o.workDir, s"trace/${w.name}-seed${o.seed}.jsonl")
        tracer.writeJsonLines(file)
        report += s"traced: requests=${traced.served.size} cycles=${traced.cycleNs.size} spans=${tracer.spanCount} -> $file"
        val layers = PerLayer(w, tracer, traced, heapAfterRun, cores)
        layers.filter(_.name.startsWith("share.")).foreach(m => report += s"${m.name} = ${fmt(m.value)}")
        val tracedE2e = endToEnd(setups(1)._1, setups(1)._2, traced)
        val overhead = e2e.zip(tracedE2e).map { case (u, t) => Metric(s"overhead.${u.name}", t.value - u.value, u.unit) }
        layers ++ overhead
      }

    report += s"failed_ratio = ${fmt(failed.toDouble / attempted)} ($failed of $attempted requests and checks)"
    e2e.foreach(m => report += f"${m.name}%-18s ${fmt(m.value)}%14s ${m.unit}")
    Output(report.toSeq, Stats.resultJson(failed == 0, attempted, failed, metrics))
  }

  /** End-to-end metrics of a pass. */
  def endToEnd(setupS: Double, heapMb: Double, p: Pass): Seq[Metric] = {
    val lat = p.served.map(_.ns / 1e6)
    val gaps = p.answers.flatMap(_.gap)
    Seq(
      Metric("setup_s", setupS, "s"),
      Metric("requests_per_s", p.served.size / (p.totalNs / 1e9), "1/s"),
      Metric("request_p50_ms", Stats.percentile(lat, 0.5), "ms"),
      Metric("request_p90_ms", Stats.percentile(lat, 0.9), "ms"),
      Metric("utility_mean", Stats.mean(p.answers.map(_.sigma)), "users"),
      Metric("bound_ratio_mean", Stats.mean(gaps.map(1.0 + _)), "ratio"),
      Metric("heap_setup_mb", heapMb, "MiB"))
  }

  /** Serve whole cycles, as many as fill about `o.seconds` of request time
    * on the reference machine (at least `minCycles`). The count depends on
    * the arguments only, so every run with the same seed does the same work.
    * Checks and counter reads happen between requests, outside the timed
    * interval.
    */
  def measure(w: Workload, tracer: Tracer, o: Main.Options, minCycles: Int,
      counters: Option[SparkCounters], spark: SparkSession): Pass = {
    val sc = spark.sparkContext
    val served = mutable.ArrayBuffer.empty[Served]
    val cycleNs = mutable.ArrayBuffer.empty[Long]
    val cycles = math.max(minCycles, math.round(o.seconds / w.nominalCycleS).toInt)
    for (c <- 0 until cycles) {
      var inCycle = 0L
      for (req <- w.cycle(o.seed, c)) {
        val id = served.size
        val before = counters.map(_.snapshot(sc))
        val gc0 = Jvm.gcMs
        val t0 = System.nanoTime()
        val result =
          try Right(tracer.inRequest(id)(w.serve(req, tracer)))
          catch { case e: Exception => Left(s"${e.getClass.getSimpleName}: ${e.getMessage}") }
        val ns = System.nanoTime() - t0
        for (b <- before; a = counters.get.snapshot(sc) - b) {
          tracer.addTo(id, "spark.jobs", a.jobs.toDouble)
          tracer.addTo(id, "spark.tasks", a.tasks.toDouble)
          tracer.addTo(id, "spark.task_busy_ms", a.busyMs.toDouble)
          tracer.addTo(id, "spark.result_bytes", a.resultBytes.toDouble)
          tracer.addTo(id, "spark.shuffle_bytes", a.shuffleBytes.toDouble)
          tracer.addTo(id, "jvm.gc_ms", (Jvm.gcMs - gc0).toDouble)
        }
        val answers = result.map(_.answers).getOrElse(Nil)
        val failures = result.fold(Seq(_), r => r.answers.flatMap(w.checkAnswer(r.idx, _)))
        served += Served(id, c, ns, answers, failures)
        inCycle += ns
      }
      cycleNs += inCycle
    }
    Pass(served.toSeq, cycleNs.toSeq)
  }

  def timeS(body: => Unit): Double = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0) / 1e9
  }

  def fmt(d: Double): String = f"$d%.4f"
}
