package repro.influence

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.util.HashRng
import scala.collection.mutable

/** Multi-Reverse-Reachable (MRR) set sampling (§V-A).
  *
  * For each of `theta` samples a root user is drawn uniformly from V; for each
  * viral piece `t_j` a reverse-reachable set is grown on the piece's
  * homogeneous influence graph (edge kept with probability `p(t_j, e)`).
  * Output rows are `(sample: Int, piece: Int, v: Long)` — the union of all RR
  * memberships, root included.
  *
  * Edge liveness is a pure hash of `(seed, sample, piece, src, dst)`, so one
  * (sample, piece) pair sees one fixed live-edge world — the exact live-edge
  * semantics RR sets require — and any reverse closure over the live edges
  * of that world reproduces the sampler's rows exactly (tests compare against
  * such a driver-side reference).
  *
  * `sampleBroadcast` collects each piece's reverse adjacency and broadcasts
  * it; samples are partitioned across executors and each runs a local reverse
  * BFS.
  */
object MrrSampler {

  private val TagRoot = 201L
  private val TagCoin = 202L

  final case class MrrConfig(theta: Int, seed: Long = 1L) {
    require(theta > 0, s"theta must be positive, got $theta")
  }

  /** The root user of sample `i` — uniform over [0, n). */
  def rootOf(sample: Int, n: Long, seed: Long): Long =
    HashRng.uniformLong(n, HashRng.mix(seed, TagRoot), sample.toLong)

  /** The liveness coin of edge (src→dst) in the world of (sample, piece). */
  def edgeAlive(sample: Int, piece: Int, src: Long, dst: Long, p: Double, seed: Long): Boolean =
    HashRng.uniform(seed, TagCoin, sample.toLong, piece.toLong, src, dst) < p

  /** Samples partitioned across the cluster, graph shipped once as
    * reverse-CSR adjacency per piece.
    */
  def sampleBroadcast(
      spark: SparkSession,
      edges: DataFrame,
      n: Long,
      pieces: Seq[Piece],
      cfg: MrrConfig): DataFrame = {
    import spark.implicits._
    val seed = cfg.seed

    val rev: Array[Map[Long, Array[(Long, Double)]]] = pieces.toArray.map { t =>
      TopicGraph.influenceGraph(edges, t)
        .select("src", "dst", "p").collect()
        .map(r => (r.getLong(1), (r.getLong(0), r.getDouble(2))))
        .groupBy(_._1).map { case (dst, rows) => dst -> rows.map(_._2) }
    }
    val bc = spark.sparkContext.broadcast(rev)
    val ell = pieces.length

    spark.range(cfg.theta)
      .mapPartitions { it =>
        val adj = bc.value
        it.flatMap { id =>
          val sample = id.toInt
          val root = rootOf(sample, n, seed)
          (0 until ell).iterator.flatMap { piece =>
            val seen = mutable.LongMap.empty[Boolean]
            val stack = mutable.ArrayDeque(root)
            seen(root) = true
            while (stack.nonEmpty) {
              val v = stack.removeLast()
              adj(piece).get(v).foreach { ins =>
                var i = 0
                while (i < ins.length) {
                  val (src, p) = ins(i)
                  if (!seen.contains(src) && edgeAlive(sample, piece, src, v, p, seed)) {
                    seen(src) = true
                    stack.append(src)
                  }
                  i += 1
                }
              }
            }
            seen.keysIterator.map(v => (sample, piece, v))
          }
        }
      }
      .toDF("sample", "piece", "v")
  }
}
