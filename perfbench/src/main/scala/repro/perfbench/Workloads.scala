package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.exp.ExperimentRunner
import repro.graphgen.{Datasets, GraphSpec, SocialGraphGen}
import repro.influence.{MrrSampler, Piece}
import scala.util.Random

/** One plan returned by a request. */
final case class Answer(
    method: String,
    k: Int,
    ratio: Double,
    ell: Int,
    plan: Plan,
    sigma: Double,
    gap: Option[Double],
    params: LogisticParams)

/** What a request returns: its plans and the index they were solved on (for
  * the output checks; the harness does not keep it after checking).
  */
final case class Reply(idx: CoverageIndex, answers: Seq[Answer])

/** Outcome of a once-per-run check: its name and what failed (empty = pass). */
final case class CheckResult(name: String, failures: Seq[String])

/** A closed-loop workload: a dataset built in `setup` and a request mix served
  * one request at a time. Requests come in cycles; every cycle holds the same
  * mix in a seed-dependent order, so runs that serve whole cycles do the same
  * work whatever the seed.
  */
trait Workload {
  type Request

  def name: String

  /** Build the dataset. Called several times per run; each call replaces the
    * previous dataset.
    */
  def setup(tracer: Tracer): Unit

  def edgeCount: Long

  /** Request time of one cycle on the reference machine (4 cores); a run
    * serves `round(--seconds / nominalCycleS)` cycles, at least one.
    */
  def nominalCycleS: Double

  def cycle(seed: Long, c: Int): IndexedSeq[Request]

  def serve(req: Request, tracer: Tracer): Reply

  /** Plan checks for one answer: budget, promoter pool, piece range, and the
    * reported σ against `CoverageIndex.auOfPlan` on `idx`.
    */
  def checkAnswer(idx: CoverageIndex, a: Answer): Seq[String]

  /** Checks made once per run, outside the timed interval. */
  def runChecks(answers: Seq[Answer]): Seq[CheckResult]

  def facts: Seq[(String, String)]
}

/** Settings shared by all workloads (the paper's §VI defaults, as used by the
  * repository's evaluation benches).
  */
object Serving {
  val Theta = 10000
  val PromoterFraction = 0.1
  val Ks: Seq[Int] = Seq(10, 20, 50, 100)
  val Ells: Seq[Int] = 1 to 5
  val Eps = 0.5
  val GapTol = 0.01
  val MaxBoundCalls = 60

  /** Seed mixing for request inputs (SplitMix64 finalizer). */
  def derive(seed: Long, a: Long, b: Long = 0L): Long = {
    var z = seed * 0x9E3779B97F4A7C15L + a * 0xBF58476D1CE4E5B9L + b * 0x94D049BB133111EBL
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Branch-and-bound with the [[TracingBounder]] around the paper's plain
    * greedy (`BAB`, Algorithm 2) or progressive (`BAB-P`, Algorithm 3) bound.
    */
  def bab(method: String, idx: CoverageIndex, params: LogisticParams, ratio: Double, env: EnvelopeTable,
      order: Array[Int], k: Int, tracer: Tracer): Answer = {
    val r = tracer.span("bab.run")(BranchAndBound.run(idx, params,
      new TracingBounder(bounder(method, idx, params, env, order), tracer), BabConfig(k, GapTol, MaxBoundCalls)))
    tracer.add("bab.runs", 1)
    if (r.boundCalls >= MaxBoundCalls) tracer.add("bab.cap_hits", 1)
    Answer(method, k, ratio, idx.ell, r.plan, r.sigma, Some(r.gap), params)
  }

  def bounder(method: String, idx: CoverageIndex, params: LogisticParams, env: EnvelopeTable,
      order: Array[Int]): Bounder = method match {
    case "BAB"   => new GreedyBounder(idx, env, order, params)
    case "BAB-P" => new ProgressiveBounder(idx, env, order, params, Eps)
    case other   => throw new IllegalArgumentException(s"not a branch-and-bound method: $other")
  }

  /** Index counters of the traced run: Σ|coverage| and the candidate count. */
  def countIndex(idx: CoverageIndex, tracer: Tracer): Unit =
    if (tracer.enabled) {
      var entries = 0L
      var c = 0
      while (c < idx.candidateCount) { entries += idx.coverage(c).length; c += 1 }
      tracer.add("index.entries", entries.toDouble)
      tracer.add("index.candidates", idx.candidateCount.toDouble)
    }

  def checkPlan(idx: CoverageIndex, a: Answer, pool: Set[Long]): Seq[String] = {
    val f = Seq.newBuilder[String]
    val tag = s"${a.method} k=${a.k} b/a=${a.ratio} l=${a.ell}"
    if (a.plan.size > a.k) f += s"$tag: plan uses ${a.plan.size} > k assignments"
    if (a.plan.ell != a.ell) f += s"$tag: plan has ${a.plan.ell} pieces, campaign has ${a.ell}"
    for ((v, j) <- a.plan.assignments) {
      if (!pool.contains(v)) f += s"$tag: vertex $v is not a promoter"
      if (j < 0 || j >= a.ell) f += s"$tag: piece $j out of [0, ${a.ell})"
    }
    val au = idx.auOfPlan(a.plan, a.params)
    if (!(math.abs(au - a.sigma) <= 1e-9 * math.max(1.0, math.abs(au))))
      f += s"$tag: reported sigma ${a.sigma} != auOfPlan $au"
    f.result()
  }

  /** σ of `a` against the Spark-SQL estimator on the same sampler output. */
  def checkSqlPath(spark: SparkSession, mrr: DataFrame, a: Answer, nVertices: Long): CheckResult = {
    val sql = AuEvaluator.evaluate(spark, mrr, a.plan, a.params, nVertices, Theta)
    val ok = math.abs(sql - a.sigma) <= 1e-6 * math.max(1.0, math.abs(sql))
    CheckResult("sigma equals AuEvaluator.evaluate",
      if (ok) Nil else Seq(s"${a.method} k=${a.k} l=${a.ell}: sigma ${a.sigma} != Spark SQL $sql"))
  }

  /** The decorated search returns the same candidates and σ as a plain one. */
  def checkDecorator(idx: CoverageIndex, ratio: Double, k: Int): CheckResult = {
    val params = LogisticParams.fromRatio(ratio)
    val env = new EnvelopeTable(params, idx.ell)
    val order = BranchAndBound.defaultOrder(idx)
    val cfg = BabConfig(k, GapTol, MaxBoundCalls)
    val failures = for {
      method <- Seq("BAB", "BAB-P")
      plain = BranchAndBound.run(idx, params, bounder(method, idx, params, env, order), cfg)
      traced = BranchAndBound.run(idx, params,
        new TracingBounder(bounder(method, idx, params, env, order), new Tracer(true)), cfg)
      if !java.util.Arrays.equals(plain.candidates, traced.candidates) || plain.sigma != traced.sigma
    } yield s"$method k=$k l=${idx.ell}: decorated run differs (sigma ${traced.sigma} vs ${plain.sigma})"
    CheckResult("TracingBounder leaves results unchanged", failures)
  }
}

/** A campaign per request: ℓ fresh one-hot pieces are sampled
  * (`MrrSampler.sampleBroadcast`), indexed (`CoverageIndex.build`) and solved
  * with BAB-P for every budget k. A cycle holds one campaign per ℓ ∈ 1..5.
  */
final class CampaignWorkload(val name: String, spark: SparkSession, spec: GraphSpec, val nominalCycleS: Double)
    extends Workload {
  import Serving._

  final case class Campaign(ell: Int, seed: Long)

  type Request = Campaign

  private val Ratio = 0.5

  private var edges: DataFrame = _
  private var promoters: Array[Long] = Array.empty
  private var pool: Set[Long] = Set.empty
  private var edges0 = 0L
  // The latest ℓ = 1 campaign's sampler output, index and one of its plans,
  // kept for the once-per-run checks.
  private var probe: Option[(DataFrame, CoverageIndex, Answer)] = None

  override def edgeCount: Long = edges0

  override def setup(tracer: Tracer): Unit = {
    if (edges != null) edges.unpersist(blocking = true)
    probe = None
    edges = tracer.span("graphgen.generate") {
      val e = SocialGraphGen.generate(spark, spec).persist()
      edges0 = e.count()
      e
    }
    promoters = tracer.span("graphgen.promoters")(SocialGraphGen.promoters(spec, PromoterFraction))
    pool = promoters.toSet
  }

  override def cycle(seed: Long, c: Int): IndexedSeq[Campaign] =
    new Random(derive(seed, c)).shuffle(Ells.toIndexedSeq).zipWithIndex
      .map { case (ell, i) => Campaign(ell, derive(seed, c, i + 1L)) }

  override def serve(r: Campaign, tracer: Tracer): Reply = {
    val pieces = ExperimentRunner.pieceVectors(r.ell, spec.numTopics, r.seed)
    val mrr = tracer.span("influence.sampleBroadcast")(
      MrrSampler.sampleBroadcast(spark, edges, spec.nVertices, pieces, MrrSampler.MrrConfig(Theta, seed = r.seed)))
    tracer.add("influence.pieces", r.ell.toDouble)
    tracer.add("influence.rr_sets", Theta.toDouble * r.ell)
    if (tracer.enabled) {
      // The sampler is lazy: without this the reverse BFS runs inside
      // CoverageIndex.build's collect.
      tracer.span("influence.bfs") { tracer.add("influence.rr_rows", mrr.persist().count().toDouble) }
    }
    val idx = tracer.span("index.build")(CoverageIndex.build(mrr, Theta, r.ell, spec.nVertices, promoters))
    if (tracer.enabled) mrr.unpersist()
    countIndex(idx, tracer)
    val params = LogisticParams.fromRatio(Ratio)
    val env = new EnvelopeTable(params, r.ell)
    val order = BranchAndBound.defaultOrder(idx)
    val answers = Ks.map(k => bab("BAB-P", idx, params, Ratio, env, order, k, tracer))
    if (r.ell == 1) probe = Some((mrr, idx, answers.head))
    Reply(idx, answers)
  }

  override def checkAnswer(idx: CoverageIndex, a: Answer): Seq[String] = checkPlan(idx, a, pool)

  override def runChecks(answers: Seq[Answer]): Seq[CheckResult] = probe match {
    case Some((mrr, idx, a)) => Seq(checkSqlPath(spark, mrr, a, spec.nVertices), checkDecorator(idx, Ratio, 20))
    case None                => Seq(CheckResult("an l=1 campaign was served", Seq("none was")))
  }

  override def facts: Seq[(String, String)] = Seq(
    "dataset" -> s"${spec.name} (|V|=${spec.nVertices}, |E|=$edges0, |Z|=${spec.numTopics}, |Vp|=${promoters.length})",
    "request" -> (s"campaign of l in {1..5} one-hot pieces; theta=$Theta; BAB-P at k in ${Ks.mkString("{", ",", "}")}, " +
      s"b/a=$Ratio, eps=$Eps, gap=$GapTol, cap=$MaxBoundCalls"),
  )
}

/** A plan query per request against one prepared index: method × k × β/α × ℓ
  * over the paper's grid, ℓ applied with `CoverageIndex.takePieces`. A cycle
  * is the whole grid in a seed-shuffled order. Set-up makes the same calls as
  * `ExperimentRunner.prepare(spec, ell = 5, theta = 10000)`, one by one so
  * that each can be traced.
  */
final class SolveMixWorkload(val name: String, spark: SparkSession, spec: GraphSpec, val nominalCycleS: Double)
    extends Workload {
  import Serving._

  final case class Query(method: String, k: Int, ratio: Double, ell: Int)

  type Request = Query

  private val MaxEll = 5
  private val PrepareSeed = 17L
  private val Methods = Seq("IM", "TIM", "BAB", "BAB-P")
  private val Ratios = Seq(0.3, 0.5, 0.7)

  private val grid: IndexedSeq[Query] =
    for (m <- Methods.toIndexedSeq; k <- Ks; r <- Ratios; l <- Ells) yield Query(m, k, r, l)

  private var edges: DataFrame = _
  private var promoters: Array[Long] = Array.empty
  private var pool: Set[Long] = Set.empty
  private var idx: CoverageIndex = _
  // The campaign's sampler output (lazy), kept for the Spark-SQL cross-check.
  private var mrr: DataFrame = _
  private var mixtureIdx: CoverageIndex = _
  private var edges0 = 0L

  override def edgeCount: Long = edges0

  override def setup(tracer: Tracer): Unit = {
    if (edges != null) edges.unpersist(blocking = true)
    edges = tracer.span("graphgen.generate") {
      val e = SocialGraphGen.generate(spark, spec).persist()
      edges0 = e.count()
      e
    }
    val pieces = ExperimentRunner.pieceVectors(MaxEll, spec.numTopics, PrepareSeed)
    promoters = tracer.span("graphgen.promoters")(SocialGraphGen.promoters(spec, PromoterFraction))
    pool = promoters.toSet
    idx = tracer.span("setup.sample") {
      mrr = MrrSampler.sampleBroadcast(spark, edges, spec.nVertices, pieces, MrrSampler.MrrConfig(Theta, seed = PrepareSeed))
      CoverageIndex.build(mrr, Theta, MaxEll, spec.nVertices, promoters)
    }
    mixtureIdx = tracer.span("setup.sample") {
      val mixture = Seq(Piece.uniformMixture(spec.numTopics))
      val mixMrr = MrrSampler.sampleBroadcast(spark, edges, spec.nVertices, mixture, MrrSampler.MrrConfig(Theta, seed = PrepareSeed + 1))
      CoverageIndex.build(mixMrr, Theta, 1, spec.nVertices, promoters)
    }
  }

  override def cycle(seed: Long, c: Int): IndexedSeq[Query] = new Random(derive(seed, c)).shuffle(grid)

  override def serve(q: Query, tracer: Tracer): Reply = {
    val sub = idx.takePieces(q.ell)
    val params = LogisticParams.fromRatio(q.ratio)
    val answer = q.method match {
      case "IM" =>
        val r = tracer.span("baselines.runIM")(Baselines.runIM(mixtureIdx, sub, params, q.k))
        Answer(q.method, q.k, q.ratio, q.ell, r.plan, r.sigma, None, params)
      case "TIM" =>
        val r = tracer.span("baselines.runTIM")(Baselines.runTIM(sub, params, q.k))
        Answer(q.method, q.k, q.ratio, q.ell, r.plan, r.sigma, None, params)
      case m =>
        val env = new EnvelopeTable(params, q.ell)
        bab(m, sub, params, q.ratio, env, BranchAndBound.defaultOrder(sub), q.k, tracer)
    }
    Reply(sub, Seq(answer))
  }

  override def checkAnswer(idx: CoverageIndex, a: Answer): Seq[String] = checkPlan(idx, a, pool)

  override def runChecks(answers: Seq[Answer]): Seq[CheckResult] = {
    // BAB dominates both baselines in every (k, β/α, ℓ) cell answered.
    val cells = answers.groupBy(a => (a.k, a.ratio, a.ell))
    val dominance = for {
      ((k, r, l), as) <- cells.toSeq.sortBy(_._1)
      bab <- as.find(_.method == "BAB").toSeq
      base <- as.filter(a => a.method == "TIM" || a.method == "IM")
      floor = if (base.method == "TIM") base.sigma * 0.999 else base.sigma
      if !(bab.sigma >= floor)
    } yield s"k=$k b/a=$r l=$l: BAB sigma ${bab.sigma} < ${base.method} ${base.sigma}"

    val sql = answers.find(a => a.ell == MaxEll && a.method == "BAB") match {
      case Some(a) => checkSqlPath(spark, mrr, a, spec.nVertices)
      case None    => CheckResult("sigma equals AuEvaluator.evaluate", Seq(s"no l=$MaxEll BAB query was answered"))
    }
    Seq(
      CheckResult("BAB >= 0.999 TIM and BAB >= IM per cell", dominance),
      sql,
      checkDecorator(idx.takePieces(3), 0.5, 20))
  }

  override def facts: Seq[(String, String)] = Seq(
    "dataset" -> s"${spec.name} (|V|=${spec.nVertices}, |E|=$edges0, |Z|=${spec.numTopics}, |Vp|=${promoters.length})",
    "request" -> (s"plan query over ${Methods.mkString("{", ",", "}")} x k${Ks.mkString("{", ",", "}")} x " +
      s"b/a${Ratios.mkString("{", ",", "}")} x l{1..5}; theta=$Theta, eps=$Eps, gap=$GapTol, cap=$MaxBoundCalls"),
  )
}

object Workloads {
  val names: Seq[String] = Seq("campaign-dblp", "campaign-tweet", "solve-mix", "solve-mix-lastfm")

  def make(name: String, spark: SparkSession): Workload = name match {
    case "campaign-dblp"  => new CampaignWorkload(name, spark, Datasets.dblpLike, nominalCycleS = 18.0)
    case "campaign-tweet" => new CampaignWorkload(name, spark, Datasets.tweetLike, nominalCycleS = 5.0)
    case "solve-mix"        => new SolveMixWorkload(name, spark, Datasets.dblpLike, nominalCycleS = 20.0)
    case "solve-mix-lastfm" => new SolveMixWorkload(name, spark, Datasets.lastfmLike, nominalCycleS = 4.0)
    case other => throw new IllegalArgumentException(s"unknown workload '$other' (known: ${names.mkString(", ")})")
  }
}
