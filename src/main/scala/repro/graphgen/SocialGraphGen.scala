package repro.graphgen

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.influence.MrrSampler
import repro.util.HashRng

/** Specification of a synthetic topic-aware social graph.
  *
  * @param name           dataset label used in reports
  * @param nVertices      |V| — vertex ids are dense in [0, nVertices)
  * @param targetEdges    |E| target; the generator draws with a margin and
  *                       deduplicates, so the realised count can fall a few
  *                       percent short (reported by `BenchDatasetStats`)
  * @param numTopics      |Z|
  * @param topicsPerEdge  number of non-zero p(e|z) entries drawn per edge
  *                       (tweet-like graphs have ~1.5, lastfm-like more)
  * @param wcScale        weighted-cascade scale: p(e|z) ≈ wcScale·jitter/indeg(dst)
  * @param seed           master seed — the graph is a pure function of the spec
  */
final case class GraphSpec(
    name: String,
    nVertices: Long,
    targetEdges: Long,
    numTopics: Int,
    topicsPerEdge: Int,
    wcScale: Double = 1.0,
    seed: Long = 42L,
) {
  require(nVertices > 1, "need at least 2 vertices")
  require(targetEdges > 0 && targetEdges <= Int.MaxValue,
    s"targetEdges must lie in [1, ${Int.MaxValue}], got $targetEdges")
  require(numTopics > 0, "need at least 1 topic")
  require(topicsPerEdge > 0 && topicsPerEdge <= numTopics,
    s"topicsPerEdge must lie in [1, $numTopics]")
  require(wcScale > 0, s"wcScale must be positive, got $wcScale")
}

/** Deterministic power-law social-graph generator (DataFrame job).
  *
  * Endpoint sampling: `v = ⌊n · u^skew⌋` with `u` a hash-uniform draw maps
  * low vertex ids to hubs and yields the heavy-tailed influence distribution
  * the paper's progressive bound exploits ("power-law principle", §V-C).
  * Edge probabilities follow the weighted-cascade convention
  * `p(e|z) = min(1, wcScale·jitter / indeg(dst))` on `topicsPerEdge`
  * hash-chosen topics, with a per-(edge, topic) jitter in [0.5, 1.5) so the
  * per-piece influence graphs differ. Each edge keeps only its drawn topics
  * (the sparse topic edge table `MrrSampler` reads).
  */
object SocialGraphGen {

  // Hash stream tags — keep draws for different purposes independent.
  private val TagSrc = 101L
  private val TagDst = 102L
  private val TagKeep = 103L
  private[graphgen] val TagTopic = 104L
  private[graphgen] val TagJitter = 105L
  private val TagPromoter = 106L

  // Power-law skew of the source endpoint (hub strength) and of the
  // destination endpoint; every dataset profile uses the same two.
  private val SrcSkew = 2.2
  private val DstSkew = 1.4

  /** Generate the `(src, dst, topics, probs)` edge DataFrame for `spec`:
    * `topics` lists the edge's distinct drawn topics ascending, `probs` their
    * p(e|z) in (0, 1] (a topic drawn twice keeps the larger p), and the
    * `topics` field carries `spec.numTopics` as `MrrSampler.topicsMetadata`.
    */
  def generate(spark: SparkSession, spec: GraphSpec): DataFrame = {
    val n = spec.nVertices
    val seed = spec.seed
    val nDraws = (spec.targetEdges * 2.2).toLong

    val endpoint = udf { (id: Long, tag: Long, skew: Double) =>
      val u = HashRng.uniform(seed, tag, id)
      math.min(n - 1, (n * math.pow(u, skew)).toLong)
    }

    val raw = spark.range(nDraws)
      .select(
        endpoint(col("id"), lit(TagSrc), lit(SrcSkew)).as("src"),
        endpoint(col("id"), lit(TagDst), lit(DstSkew)).as("dst"),
      )
      .where(col("src") =!= col("dst"))
      .distinct()

    // Deterministic unbiased down-sample to the target count: order by an
    // edge hash (not by id, which would bias retained edges toward hubs).
    val keepRank = udf((s: Long, d: Long) => HashRng.uniform(seed, TagKeep, s, d))
    val edges = raw
      .withColumn("rank", keepRank(col("src"), col("dst")))
      .orderBy("rank")
      .limit(spec.targetEdges.toInt)
      .drop("rank")

    // Counted over the one down-sampled edge set: the window sits on the
    // top-N's single partition, so the pipeline is evaluated once.
    val indeg = count(lit(1)).over(Window.partitionBy("dst"))

    // Insertion into the ascending topic list: exactly the non-zero entries
    // of the dense vector `if (p > probs(z)) probs(z) = p` fills.
    val mkTopics = udf { (s: Long, d: Long, indeg: Long) =>
      val topics = new Array[Int](spec.topicsPerEdge)
      val probs = new Array[Double](spec.topicsPerEdge)
      var m = 0
      var t = 0
      while (t < spec.topicsPerEdge) {
        val z = HashRng.uniformLong(spec.numTopics, HashRng.mix(seed, TagTopic, s, d), t.toLong).toInt
        val jitter = 0.5 + HashRng.uniform(seed, TagJitter, s, d, t.toLong)
        val p = math.min(1.0, spec.wcScale * jitter / indeg.toDouble)
        var i = 0
        while (i < m && topics(i) < z) i += 1
        if (i < m && topics(i) == z) { if (p > probs(i)) probs(i) = p }
        else {
          System.arraycopy(topics, i, topics, i + 1, m - i)
          System.arraycopy(probs, i, probs, i + 1, m - i)
          topics(i) = z
          probs(i) = p
          m += 1
        }
        t += 1
      }
      (java.util.Arrays.copyOf(topics, m), java.util.Arrays.copyOf(probs, m))
    }

    edges
      .select(col("src"), col("dst"), mkTopics(col("src"), col("dst"), indeg).as("t"))
      .select(col("src"), col("dst"),
        col("t._1").as("topics", MrrSampler.topicsMetadata(spec.numTopics)), col("t._2").as("probs"))
  }

  /** The promoter pool Vp: a deterministic hash-chosen fraction of V (§VI-A
    * uses 10%). Driver-side — promoter pools are at most a few thousand ids.
    */
  def promoters(spec: GraphSpec, fraction: Double = 0.1): Array[Long] = {
    require(fraction > 0 && fraction <= 1, s"fraction must lie in (0,1], got $fraction")
    java.util.stream.LongStream.range(0L, spec.nVertices)
      .filter(v => HashRng.uniform(spec.seed, TagPromoter, v) < fraction).toArray
  }
}

/** Dataset profiles standing in for the paper's three real datasets.
  *
  * lastfm is reproduced at full size; dblp and tweet are linearly scaled to
  * fit a single-host Spark run while preserving average degree and topic
  * sparsity (DESIGN.md §3 documents the substitutions).
  */
object Datasets {

  /** lastfm: 1.3K vertices, 15K edges, 20 topics — full paper size. */
  val lastfmLike: GraphSpec = GraphSpec(
    name = "lastfm", nVertices = 1300, targetEdges = 15000,
    numTopics = 20, topicsPerEdge = 6, wcScale = 2.0, seed = 7L)

  /** dblp at 1/10 linear scale: 50K vertices, 600K edges, 9 topics,
    * average degree 12 as in the original (0.5M/6M).
    */
  val dblpLike: GraphSpec = GraphSpec(
    name = "dblp", nVertices = 50000, targetEdges = 600000,
    numTopics = 9, topicsPerEdge = 3, wcScale = 2.0, seed = 11L)

  /** tweet at 1/100 linear scale: 100K vertices, 120K edges, 50 topics,
    * average degree 1.2 and ~1.5 active topics per edge as in the original.
    */
  val tweetLike: GraphSpec = GraphSpec(
    name = "tweet", nVertices = 100000, targetEdges = 120000,
    numTopics = 50, topicsPerEdge = 2, wcScale = 1.0, seed = 13L)

  val all: Seq[GraphSpec] = Seq(lastfmLike, dblpLike, tweetLike)
}
