package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.graphgen.{GraphSpec, SocialGraphGen}
import repro.influence.{MrrSampler, Piece}
import repro.util.HashRng

/** Shared harness behind every evaluation table/figure (§VI).
  *
  * `prepare` builds the dataset once — graph, campaign pieces, MRR samples,
  * coverage indices — and the per-figure benches sweep k / ℓ / β/α / ε over
  * it. Pieces are one-hot topic vectors over hash-shuffled distinct topics
  * ("uniformly sampling a non-zero topic dimension", §VI-A). As in the paper,
  * method timings exclude the shared sampling time, which is reported
  * separately (Table III's "Sample Time").
  */
object ExperimentRunner {

  private val TagPieceTopic = 401L

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
    */
  final case class Prepared(
      spec: GraphSpec,
      edges: DataFrame,
      pieces: Seq[Piece],
      promoters: Array[Long],
      idx: CoverageIndex,
      mixtureIdx: CoverageIndex,
      realizedEdges: Long,
      sampleTimeMs: Long)

  /** One method's outcome on one configuration. */
  final case class MethodResult(
      name: String,
      utility: Double,
      timeMs: Long,
      tauEvals: Long = 0L,
      boundCalls: Int = 0,
      gap: Double = 0.0)

  /** The campaign's one-hot pieces: first `ell` topics of a hash-shuffled
    * distinct topic order (ℓ ≤ |Z| in all experiments).
    */
  def pieceVectors(ell: Int, numTopics: Int, seed: Long): Seq[Piece] = {
    require(ell >= 1, s"need ℓ ≥ 1, got ℓ=$ell")
    require(ell <= numTopics, s"need ℓ ≤ |Z|: ℓ=$ell, |Z|=$numTopics")
    val shuffled = (0 until numTopics)
      .sortBy(z => HashRng.uniform(seed, TagPieceTopic, z.toLong))
    shuffled.take(ell).map(Piece.oneHot(_, numTopics))
  }

  /** Build graph, pieces and MRR indices for one (dataset, ℓ, θ) tuple. */
  def prepare(
      spark: SparkSession,
      spec: GraphSpec,
      ell: Int,
      theta: Int): Prepared = {
    val edges = SocialGraphGen.generate(spark, spec).persist()
    val realizedEdges = edges.count()
    val pieces = pieceVectors(ell, spec.numTopics, PrepareSeed)
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

    Prepared(spec, edges, pieces, promoters, idx, mixtureIdx, realizedEdges, sampleTimeMs)
  }

  /** Restrict a prepared dataset to its first `ell` pieces (pieces are
    * independent and `pieceVectors` is prefix-stable, so the restriction is
    * exact — no resampling needed for the ℓ-sweep).
    */
  def restrict(prep: Prepared, ell: Int): Prepared =
    prep.copy(pieces = prep.pieces.take(ell), idx = prep.idx.takePieces(ell))

  /** BAB/BAB-P stop at the paper's 1 % bound gap (§VI-A). */
  private val GapTol = 0.01

  /** Safety valve on ComputeBound calls per BAB/BAB-P search; on hit the
    * search returns its best plan so far with the gap still open.
    */
  private val MaxBoundCalls = 60

  /** Run the four compared methods on one configuration. */
  def runAll(
      prep: Prepared,
      k: Int,
      params: LogisticParams,
      eps: Double = 0.5,
      methods: Set[String] = Set("IM", "TIM", "BAB", "BAB-P")): Seq[MethodResult] = {
    val out = Seq.newBuilder[MethodResult]
    if (methods("IM")) {
      val r = Baselines.runIM(prep.mixtureIdx, prep.idx, params, k)
      out += MethodResult("IM", r.sigma, r.elapsedMs)
    }
    if (methods("TIM")) {
      val r = Baselines.runTIM(prep.idx, params, k)
      out += MethodResult("TIM", r.sigma, r.elapsedMs)
    }
    val cfg = BabConfig(k, GapTol, MaxBoundCalls)
    if (methods("BAB")) {
      val r = BranchAndBound.runGreedy(prep.idx, params, cfg)
      out += MethodResult("BAB", r.sigma, r.elapsedMs, r.tauEvals, r.boundCalls, r.gap)
    }
    if (methods("BAB-P")) {
      val r = BranchAndBound.runProgressive(prep.idx, params, cfg, eps)
      out += MethodResult("BAB-P", r.sigma, r.elapsedMs, r.tauEvals, r.boundCalls, r.gap)
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
