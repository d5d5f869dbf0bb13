package repro.influence

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}
import repro.util.HashRng

/** Multi-Reverse-Reachable (MRR) set sampling (§V-A).
  *
  * For each of `theta` samples a root user is drawn uniformly from V; for each
  * viral piece `t_j` a reverse-reachable set is grown on the piece's
  * homogeneous influence graph (edge kept with probability `p(t_j, e)`).
  * Output rows are `(sample: Int, piece: Int, v: Long)` — the union of all RR
  * memberships, root included — as a lazy DataFrame over an RDD of rows, one
  * partition per default-parallelism slice of the samples, with non-nullable
  * columns `sample: int, piece: int, v: long`.
  *
  * Edge liveness is a pure hash of `(seed, sample, piece, src, dst)`, so one
  * (sample, piece) pair sees one fixed live-edge world — the exact live-edge
  * semantics RR sets require — and any reverse closure over the live edges
  * of that world reproduces the sampler's rows exactly (tests compare against
  * such a driver-side reference).
  *
  * `sampleBroadcast` never materializes a per-piece influence graph. The
  * topic-aware edge table is collected once into a reverse topic-CSR, which
  * is broadcast and kept in a single-slot cache keyed on the `edges`
  * DataFrame's reference identity plus `n`, so every campaign on one edge
  * table reuses it. A call ships only its pieces' weight vectors; the reverse
  * BFS computes `p(t, e)` as a sparse dot over the edge's non-zero topics at
  * each edge it traverses. A cache miss drops the old broadcast without
  * destroying it, because lazy results returned earlier still read it;
  * Spark's ContextCleaner frees it once they are unreachable.
  *
  * Contract: vertex ids are dense in `[0, n)` (`n ≤ Int.MaxValue - 1`), and
  * `edges` is deterministic — recomputing it yields the same rows, as every
  * in-repo source does because they are hash-seeded.
  */
object MrrSampler {

  private val TagRoot = 201L
  private val TagCoin = 202L

  private val RowSchema = StructType(Seq(
    StructField("sample", IntegerType, nullable = false),
    StructField("piece", IntegerType, nullable = false),
    StructField("v", LongType, nullable = false)))

  final case class MrrConfig(theta: Int, seed: Long = 1L) {
    require(theta > 0, s"theta must be positive, got $theta")
  }

  /** The root user of sample `i` — uniform over [0, n). */
  def rootOf(sample: Int, n: Long, seed: Long): Long =
    HashRng.uniformLong(n, HashRng.mix(seed, TagRoot), sample.toLong)

  /** The liveness coin of edge (src→dst) in the world of (sample, piece). */
  def edgeAlive(sample: Int, piece: Int, src: Long, dst: Long, p: Double, seed: Long): Boolean =
    HashRng.uniform(seed, TagCoin, sample.toLong, piece.toLong, src, dst) < p

  /** The topic-aware graph in reverse CSR form: the in-edges of `v` are
    * `inOff(v) until inOff(v + 1)`, edge `e` runs `src(e) → v`, and its
    * non-zero topic probabilities are `prob(k)` for topic `topic(k)`, `k` in
    * `topOff(e) until topOff(e + 1)`, topics ascending. `numTopics` is the
    * edges' topic arity, -1 for an empty graph.
    */
  private final class ReverseTopicCsr(
      val numTopics: Int,
      val inOff: Array[Int],
      val src: Array[Int],
      val topOff: Array[Int],
      val topic: Array[Int],
      val prob: Array[Double]) extends Serializable {

    /** p(t, e) = min(1, Σ w(z)·p(e|z)) over the edge's non-zero topics, in
      * ascending topic order: bit-identical to [[Piece.edgeProb]] on the
      * dense vector, whose zero terms only add +0.0.
      */
    def edgeProb(e: Int, w: Array[Double]): Double = {
      var s = 0.0
      var k = topOff(e)
      val end = topOff(e + 1)
      while (k < end) { s += w(topic(k)) * prob(k); k += 1 }
      math.min(1.0, s)
    }
  }

  private object ReverseTopicCsr {

    /** One collect of the edges, sparsified on the executors, sorted by `dst`. */
    def build(spark: SparkSession, edges: DataFrame, n: Long): ReverseTopicCsr = {
      import spark.implicits._
      val rows = edges.select("dst", "src", "probs").as[(Long, Long, Array[Double])]
        .map { case (dst, src, probs) =>
          val nz = probs.indices.filter(probs(_) != 0.0).toArray
          (dst, src, probs.length, nz, nz.map(probs))
        }
        .collect()
        .sortBy(_._1)
      val numTopics = rows.headOption.fold(-1)(_._3)
      val inOff = new Array[Int](n.toInt + 1)
      rows.foreach { case (dst, src, arity, topics, ps) =>
        require(dst >= 0 && dst < n, s"edge endpoint $dst out of [0, $n)")
        require(src >= 0 && src < n, s"edge endpoint $src out of [0, $n)")
        require(arity == numTopics, s"edge $src→$dst carries $arity topics, others $numTopics")
        for (k <- ps.indices)
          require(ps(k) > 0 && ps(k) <= 1, s"edge $src→$dst has p(e|z=${topics(k)}) = ${ps(k)}, outside (0, 1]")
        inOff(dst.toInt + 1) += 1
      }
      var v = 0
      while (v < n) { inOff(v + 1) += inOff(v); v += 1 }
      new ReverseTopicCsr(numTopics, inOff, rows.map(_._2.toInt),
        rows.scanLeft(0)(_ + _._4.length), rows.flatMap(_._4), rows.flatMap(_._5))
    }
  }

  // The CSR of the last edge table sampled (see the object doc).
  private final case class Cached(edges: DataFrame, n: Long, csr: Broadcast[ReverseTopicCsr])
  private var cached: Option[Cached] = None

  private def csrFor(spark: SparkSession, edges: DataFrame, n: Long): Broadcast[ReverseTopicCsr] =
    synchronized {
      cached match {
        case Some(c) if (c.edges eq edges) && c.n == n => c.csr
        case _ =>
          val bc = spark.sparkContext.broadcast(ReverseTopicCsr.build(spark, edges, n))
          cached = Some(Cached(edges, n, bc))
          bc
      }
    }

  /** Samples partitioned across the cluster; each task runs a local reverse
    * BFS per (sample, piece) over the cached reverse topic-CSR of `edges`.
    * Edges with `p ≤ 0` are never live. Edge endpoints outside `[0, n)`, a
    * non-zero topic probability p(e|z) outside (0, 1] (NaN included) and
    * pieces whose topic arity differs from the edges' raise an
    * `IllegalArgumentException` on the driver, before sampling starts, and
    * so does an empty piece list.
    */
  def sampleBroadcast(
      spark: SparkSession,
      edges: DataFrame,
      n: Long,
      pieces: Seq[Piece],
      cfg: MrrConfig): DataFrame = {
    require(n > 0 && n <= Int.MaxValue - 1, s"n must lie in [1, ${Int.MaxValue - 1}], got $n")
    require(pieces.nonEmpty, "need at least one piece, got an empty piece list")
    val bc = csrFor(spark, edges, n)
    val numTopics = bc.value.numTopics
    pieces.foreach { t =>
      require(numTopics < 0 || t.numTopics == numTopics,
        s"topic arity mismatch: edge=$numTopics, piece=${t.numTopics}")
    }
    val weights = pieces.map(_.weights).toArray
    val seed = cfg.seed
    val ell = weights.length

    val sc = spark.sparkContext
    val rows = sc.parallelize(0 until cfg.theta, sc.defaultParallelism)
      .mapPartitions { it =>
        val g = bc.value
        // seen(v) == epoch marks v reached in the current (sample, piece);
        // reached(0 until size) lists those vertices and doubles as the queue.
        val seen = new Array[Int](n.toInt)
        val reached = new Array[Int](n.toInt)
        var epoch = 0
        it.flatMap { sample =>
          val root = rootOf(sample, n, seed).toInt
          (0 until ell).iterator.flatMap { piece =>
            val w = weights(piece)
            if (epoch == Int.MaxValue) { java.util.Arrays.fill(seen, 0); epoch = 0 }
            epoch += 1
            seen(root) = epoch
            reached(0) = root
            var size = 1
            var head = 0
            while (head < size) {
              val v = reached(head)
              head += 1
              var e = g.inOff(v)
              val end = g.inOff(v + 1)
              while (e < end) {
                val u = g.src(e)
                if (seen(u) != epoch) {
                  val p = g.edgeProb(e, w)
                  if (p > 0 && edgeAlive(sample, piece, u.toLong, v.toLong, p, seed)) {
                    seen(u) = epoch
                    reached(size) = u
                    size += 1
                  }
                }
                e += 1
              }
            }
            Iterator.range(0, size).map(i => Row(sample, piece, reached(i).toLong))
          }
        }
      }
    spark.createDataFrame(rows, RowSchema)
  }
}
