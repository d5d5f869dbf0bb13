package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.graphgen.{GraphSpec, SocialGraphGen}
import repro.influence.{MrrSampler, Piece}

/** Shared harness behind every evaluation table/figure (§VI).
  *
  * `prepare` builds the dataset once — graph, campaign pieces
  * ([[ExperimentRunner.pieceVectors]]), MRR samples, coverage indices — and
  * the per-figure benches sweep k / ℓ / β/α / ε over it. As in the paper,
  * method timings exclude the shared sampling time, which is reported
  * separately (Table III's "Sample Time").
  */
object Experiments {

  /** Share of the vertices in the promoter pool, and the seed of the pieces
    * and the MRR samples, for every prepared dataset.
    */
  private val PromoterFraction = 0.1
  private val PrepareSeed = 17L

  /** One prepared dataset: everything the methods consume.
    *
    * @param idx        campaign MRR coverage index (ℓ pieces)
    * @param mixtureIdx single-piece RR index on the uniform topic mixture
    *                   (IM baseline's topic-agnostic view)
    * @param cachedEdgesMb the persisted edge table's size in the block
    *                   manager (`SparkContext.getRDDStorageInfo`), MiB
    * @param generateMs time to generate, persist and count the edge table
    */
  final case class Prepared(
      spec: GraphSpec,
      edges: DataFrame,
      pieces: Seq[Piece],
      promoters: Array[Long],
      idx: CoverageIndex,
      mixtureIdx: CoverageIndex,
      realizedEdges: Long,
      cachedEdgesMb: Double,
      generateMs: Long,
      sampleTimeMs: Long)

  /** One method's outcome on one configuration. */
  final case class MethodResult(
      name: String,
      utility: Double,
      timeMs: Long,
      tauEvals: Long = 0L,
      boundCalls: Int = 0,
      gap: Double = 0.0)

  /** Build graph, pieces and MRR indices for one (dataset, ℓ, θ) tuple. */
  def prepare(
      spark: SparkSession,
      spec: GraphSpec,
      ell: Int,
      theta: Int): Prepared = {
    // The persisted edge table's block-manager size: the cached RDDs that
    // persist and count add.
    def cachedRdds = spark.sparkContext.getRDDStorageInfo.map(i => i.id -> i.memSize).toMap
    val cachedBefore = cachedRdds.keySet
    val tGen = System.nanoTime()
    val edges = SocialGraphGen.generate(spark, spec).persist()
    val realizedEdges = edges.count()
    val generateMs = (System.nanoTime() - tGen) / 1000000L
    val cachedEdgesMb = cachedRdds.collect { case (id, bytes) if !cachedBefore(id) => bytes }.sum / 1048576.0
    val pieces = ExperimentRunner.pieceVectors(ell, spec.numTopics, PrepareSeed)
    val promoters = SocialGraphGen.promoters(spec, PromoterFraction)

    val t0 = System.nanoTime()
    val mrr = MrrSampler.sampleBroadcast(
      spark, edges, spec.nVertices, pieces, MrrSampler.MrrConfig(theta, seed = PrepareSeed))
    val idx = CoverageIndex.build(mrr, theta, ell, spec.nVertices, promoters)
    val sampleTimeMs = (System.nanoTime() - t0) / 1000000L

    val mixture = Seq(Piece.uniformMixture(spec.numTopics))
    val mixMrr = MrrSampler.sampleBroadcast(
      spark, edges, spec.nVertices, mixture, MrrSampler.MrrConfig(theta, seed = PrepareSeed + 1))
    val mixtureIdx = CoverageIndex.build(mixMrr, theta, 1, spec.nVertices, promoters)

    Prepared(spec, edges, pieces, promoters, idx, mixtureIdx, realizedEdges, cachedEdgesMb, generateMs, sampleTimeMs)
  }

  /** Restrict a prepared dataset to its first `ell` pieces (pieces are
    * independent and `pieceVectors` is prefix-stable, so the restriction is
    * exact — no resampling needed for the ℓ-sweep).
    */
  def restrict(prep: Prepared, ell: Int): Prepared =
    prep.copy(pieces = prep.pieces.take(ell), idx = prep.idx.takePieces(ell))

  /** The bounder of a branch-and-bound method over `idx` in the default
    * candidate order: plain greedy for `BAB` (Algorithm 2), progressive with
    * `eps` for `BAB-P` (Algorithm 3).
    */
  def bounder(method: String, idx: CoverageIndex, params: LogisticParams, eps: Double): Bounder = {
    val env = new EnvelopeTable(params, idx.ell)
    val order = BranchAndBound.defaultOrder(idx)
    method match {
      case "BAB"   => new GreedyBounder(idx, env, order, params)
      case "BAB-P" => new ProgressiveBounder(idx, env, order, params, eps)
      case other   => throw new IllegalArgumentException(s"not a branch-and-bound method: $other")
    }
  }

  /** Branch-and-bound over `idx` with the bounder of `method`. */
  def search(method: String, idx: CoverageIndex, params: LogisticParams, cfg: BabConfig,
      eps: Double = 0.5): BabResult =
    BranchAndBound.run(idx, params, bounder(method, idx, params, eps), cfg)

  /** BAB/BAB-P stop at the paper's 1 % bound gap (§VI-A). */
  private val GapTol = 0.01

  /** Safety valve on ComputeBound calls per BAB/BAB-P search; on hit the
    * search returns its best plan so far with the gap still open.
    */
  private val MaxBoundCalls = 60

  /** Milliseconds `f` takes, with its result. */
  private def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1000000L)
  }

  /** Run the four compared methods on one configuration. A BAB/BAB-P time
    * includes building its bounder.
    */
  def runAll(
      prep: Prepared,
      k: Int,
      params: LogisticParams,
      eps: Double = 0.5,
      methods: Set[String] = Set("IM", "TIM", "BAB", "BAB-P")): Seq[MethodResult] = {
    val out = Seq.newBuilder[MethodResult]
    if (methods("IM")) {
      val (r, ms) = timed(Baselines.runIM(prep.mixtureIdx, prep.idx, params, k))
      out += MethodResult("IM", r.sigma, ms)
    }
    if (methods("TIM")) {
      val (r, ms) = timed(Baselines.runTIM(prep.idx, params, k))
      out += MethodResult("TIM", r.sigma, ms)
    }
    val cfg = BabConfig(k, GapTol, MaxBoundCalls)
    for (method <- Seq("BAB", "BAB-P") if methods(method)) {
      val (r, ms) = timed(search(method, prep.idx, params, cfg, eps))
      out += MethodResult(method, r.sigma, ms, r.tauEvals, r.boundCalls, r.gap)
    }
    out.result()
  }

  /** Render result rows as a GitHub-markdown table. */
  def markdownTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append(header.mkString("| ", " | ", " |")).append('\n')
    sb.append(header.map(_ => "---").mkString("| ", " | ", " |")).append('\n')
    rows.foreach(r => sb.append(r.mkString("| ", " | ", " |")).append('\n'))
    sb.toString
  }

  def fmt(d: Double): String = f"$d%.3f"
}
