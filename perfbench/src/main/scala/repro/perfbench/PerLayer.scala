package repro.perfbench

/** Per-layer metrics of a traced pass. Each additive metric is reported per
  * request and, with a `.total` suffix, over the pass. Every workload
  * reports the same names; a layer a workload does not call reads 0.
  * Self time is reported for the spans that have children (`request`,
  * `bab.run`); a leaf span's self time is its `*_ms` metric.
  */
object PerLayer {

  def apply(w: Workload, tracer: Tracer, p: Pass, heapAfterRunMb: Double, cores: Int): Seq[Metric] = {
    val n = p.served.size.toDouble
    val inReq = tracer.times(inRequests = true)
    val inSetup = tracer.times(inRequests = false)
    def ms(span: String): Double = inReq.get(span).map(_.totalMs).getOrElse(0.0)
    def selfMs(span: String): Double = inReq.get(span).map(_.selfMs).getOrElse(0.0)
    def setupMs(span: String): Double = inSetup.get(span).map(_.totalMs).getOrElse(0.0)
    def c(name: String): Double = tracer.counterTotal(name)
    def ratio(a: Double, b: Double): Double = if (b > 0) a / b else 0.0
    def both(name: String, total: Double, unit: String): Seq[Metric] =
      Seq(Metric(name, total / n, unit), Metric(s"$name.total", total, unit))

    val requestMs = p.totalNs / 1e6
    val boundMs = ms("bound.computeBound")
    val babMs = ms("bab.run")
    // Throughput of the first half of the cycles over that of the second half.
    val half = p.cycleNs.size / 2
    val perCycle = p.served.groupBy(_.cycle).view.mapValues(_.size).toMap
    def throughput(cs: Range): Double = ratio(cs.map(perCycle.getOrElse(_, 0)).sum, cs.map(p.cycleNs(_)).sum / 1e9)
    val drift = ratio(throughput(0 until half), throughput(half until p.cycleNs.size))

    Seq(
      Metric("graphgen.generate_ms", setupMs("graphgen.generate"), "ms"),
      Metric("graphgen.edges", w.edgeCount.toDouble, "count"),
      Metric("graphgen.promoters_ms", setupMs("graphgen.promoters"), "ms"),
      Metric("setup.sample_ms", setupMs("setup.sample"), "ms"),
    ) ++
      both("influence.sample_call_ms", ms("influence.sampleBroadcast"), "ms") ++
      Seq(Metric("influence.sample_call_ms_per_piece", ratio(ms("influence.sampleBroadcast"), c("influence.pieces")), "ms")) ++
      both("influence.bfs_ms", ms("influence.bfs"), "ms") ++
      both("influence.rr_rows", c("influence.rr_rows"), "count") ++
      Seq(Metric("influence.rr_rows_per_set", ratio(c("influence.rr_rows"), c("influence.rr_sets")), "count")) ++
      both("index.build_ms", ms("index.build"), "ms") ++
      both("index.entries", c("index.entries"), "count") ++
      Seq(
        Metric("index.candidates", c("index.candidates") / n, "count"),
        Metric("index.useful_ratio", ratio(c("index.entries"), c("influence.rr_rows")), "ratio")) ++
      both("bound.calls", c("bound.calls"), "count") ++
      both("bound.ms", boundMs, "ms") ++
      Seq(Metric("bound.ms_per_call", ratio(boundMs, c("bound.calls")), "ms")) ++
      both("bound.tau_evals", c("bound.tau_evals"), "count") ++
      Seq(Metric("bound.ns_per_tau_eval", ratio(boundMs * 1e6, c("bound.tau_evals")), "ns")) ++
      both("bab.ms", babMs, "ms") ++
      both("bab.self_ms", selfMs("bab.run"), "ms") ++
      Seq(
        Metric("bab.cap_hit_ratio", ratio(c("bab.cap_hits"), c("bab.runs")), "ratio"),
        Metric("bab.gap_mean", Stats.mean(p.answers.flatMap(_.gap)), "ratio")) ++
      both("baselines.tim_ms", ms("baselines.runTIM"), "ms") ++
      both("baselines.im_ms", ms("baselines.runIM"), "ms") ++
      both("spark.jobs", c("spark.jobs"), "count") ++
      both("spark.tasks", c("spark.tasks"), "count") ++
      both("spark.task_busy_ms", c("spark.task_busy_ms"), "ms") ++
      Seq(Metric("spark.core_busy_ratio", ratio(c("spark.task_busy_ms"), requestMs * cores), "ratio")) ++
      both("spark.result_bytes", c("spark.result_bytes"), "B") ++
      both("spark.shuffle_bytes", c("spark.shuffle_bytes"), "B") ++
      both("jvm.gc_ms", c("jvm.gc_ms"), "ms") ++
      Seq(
        Metric("jvm.heap_after_run_mb", heapAfterRunMb, "MiB"),
        Metric("jvm.drift_ratio", drift, "ratio")) ++
      both("request.self_ms", selfMs("request"), "ms") ++
      Seq(
        Metric("share.sample_call_of_request", ratio(ms("influence.sampleBroadcast"), ms("request")), "ratio"),
        Metric("share.bound_of_bab", ratio(boundMs, babMs), "ratio"),
        Metric("trace.requests", n, "count"))
  }
}
