package repro.influence

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{ArrayType, DoubleType, IntegerType, LongType, StructField, StructType}
import repro.util.HashRng
import scala.collection.mutable

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
  * reverse topic-CSR is read in place from the topic-aware edge rows in one
  * pass, each task sending back primitive arrays, and laid out on the driver
  * by a counting sort; it is broadcast and kept in a single-slot cache keyed
  * on the `edges` DataFrame's reference identity plus `n`, so every campaign
  * on one edge table reuses it. A call ships only its pieces' weight
  * vectors; the reverse BFS computes `p(t, e)` as a sparse dot over the
  * edge's non-zero topics at each edge it traverses. A cache miss drops the old broadcast without
  * destroying it, because lazy results returned earlier still read it;
  * Spark's ContextCleaner frees it once they are unreachable.
  *
  * Contract: `edges` has columns `src: long`, `dst: long` and `probs:
  * array<double>` (see `ReverseTopicCsr.build`), vertex ids are dense in
  * `[0, n)` (`n ≤ Int.MaxValue - 1`), and `edges` is deterministic —
  * recomputing it yields the same rows, as every in-repo source does because
  * they are hash-seeded.
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
      * ascending topic order: bit-identical to the same sum over the dense
      * vector (the tests' `TopicGraph.edgeProb`), whose zero terms only add +0.0.
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

    /** One partition's edges in input order, copied out of the edge rows:
      * edge `i` runs `src(i) → dst(i)` with `arity(i)` topics, of which
      * `nnz(i)` are non-zero and listed in `topic`/`prob`, topics ascending.
      * `nullEdge` names the first edge holding a null; the driver then
      * rejects the part without reading its arrays.
      */
    final case class Part(
        dst: Array[Long],
        src: Array[Long],
        arity: Array[Int],
        nnz: Array[Int],
        topic: Array[Int],
        prob: Array[Double],
        nullEdge: Option[String])

    /** One pass over the edge rows as `queryExecution.toRdd` yields them,
      * read in place at the three columns' ordinals: each task copies its
      * edges out into one [[Part]] of primitive arrays. The driver checks
      * every edge, then lays the edges out by `dst` with a stable counting
      * sort that takes the parts in order, so each vertex's in-edges keep
      * their edge-table order.
      *
      * Column contract: `src: long`, `dst: long`, `probs: array<double>`,
      * found by name. A missing column or any other type (an `int` endpoint
      * included) raises an `IllegalArgumentException` naming the column and
      * both types; nothing is cast. So, naming the edge, do a null endpoint,
      * `probs` or p(e|z), an endpoint outside `[0, n)`, a topic arity that
      * differs from another edge's and a non-zero p(e|z) outside (0, 1].
      */
    def build(edges: DataFrame, n: Long): ReverseTopicCsr = {
      val columns = Seq("src" -> LongType, "dst" -> LongType, "probs" -> ArrayType(DoubleType))
      for ((name, want) <- columns) {
        val got = edges.schema.find(_.name == name).map(_.dataType)
        require(got.map { case ArrayType(t, _) => ArrayType(t); case t => t }.contains(want),
          s"column $name must be ${want.simpleString}, got ${got.fold("no such column")(_.simpleString)}")
      }
      // A fresh projection, not `edges`' own QueryExecution, whose executed
      // plan and scan buffers (about 5 MB on the tweet-like graph) the CSR
      // cache would keep alive through `edges`.
      val (si, di, pi) = (0, 1, 2)
      val parts = edges.select("src", "dst", "probs").queryExecution.toRdd
        .mapPartitions { rows =>
          val dst = new mutable.ArrayBuilder.ofLong
          val src = new mutable.ArrayBuilder.ofLong
          val arity = new mutable.ArrayBuilder.ofInt
          val nnz = new mutable.ArrayBuilder.ofInt
          val topic = new mutable.ArrayBuilder.ofInt
          val prob = new mutable.ArrayBuilder.ofDouble
          var nullEdge: String = null
          while (nullEdge == null && rows.hasNext) {
            val r = rows.next()
            if (r.isNullAt(si) || r.isNullAt(di)) {
              def show(i: Int): String = if (r.isNullAt(i)) "null" else r.getLong(i).toString
              nullEdge = s"edge ${show(si)}→${show(di)} has a null endpoint"
            } else if (r.isNullAt(pi)) nullEdge = s"edge ${r.getLong(si)}→${r.getLong(di)} has null probs"
            else {
              val ps = r.getArray(pi)
              val a = ps.numElements()
              var count = 0
              var k = 0
              while (nullEdge == null && k < a) {
                if (ps.isNullAt(k)) nullEdge = s"edge ${r.getLong(si)}→${r.getLong(di)} has p(e|z=$k) = null"
                else {
                  val p = ps.getDouble(k)
                  if (p != 0.0) { topic += k; prob += p; count += 1 }
                }
                k += 1
              }
              dst += r.getLong(di)
              src += r.getLong(si)
              arity += a
              nnz += count
            }
          }
          Iterator.single(Part(dst.result(), src.result(), arity.result(), nnz.result(),
            topic.result(), prob.result(), Option(nullEdge)))
        }
        .collect()

      // Every check of an edge runs before its endpoints index anything.
      val numTopics = parts.find(_.arity.nonEmpty).fold(-1)(_.arity(0))
      val inOff = new Array[Int](n.toInt + 1)
      parts.foreach { part =>
        part.nullEdge.foreach(msg => throw new IllegalArgumentException(msg))
        var k = 0
        var i = 0
        while (i < part.dst.length) {
          val s = part.src(i)
          val d = part.dst(i)
          require(d >= 0 && d < n, s"edge endpoint $d out of [0, $n)")
          require(s >= 0 && s < n, s"edge endpoint $s out of [0, $n)")
          require(part.arity(i) == numTopics, s"edge $s→$d carries ${part.arity(i)} topics, others $numTopics")
          val end = k + part.nnz(i)
          while (k < end) {
            val p = part.prob(k)
            require(p > 0 && p <= 1, s"edge $s→$d has p(e|z=${part.topic(k)}) = $p, outside (0, 1]")
            k += 1
          }
          inOff(d.toInt + 1) += 1
          i += 1
        }
      }
      var v = 0
      while (v < n) { inOff(v + 1) += inOff(v); v += 1 }

      // Stable counting sort by dst: each edge's slot, source and topic
      // count first, then its topics at the slot's offset.
      val m = inOff(n.toInt)
      val src = new Array[Int](m)
      val topOff = new Array[Int](m + 1)
      val next = java.util.Arrays.copyOf(inOff, n.toInt)
      val slots = parts.map { part =>
        val slot = new Array[Int](part.dst.length)
        var i = 0
        while (i < slot.length) {
          val d = part.dst(i).toInt
          slot(i) = next(d)
          next(d) += 1
          src(slot(i)) = part.src(i).toInt
          topOff(slot(i) + 1) = part.nnz(i)
          i += 1
        }
        slot
      }
      var e = 0
      while (e < m) { topOff(e + 1) += topOff(e); e += 1 }
      val topic = new Array[Int](topOff(m))
      val prob = new Array[Double](topOff(m))
      parts.zip(slots).foreach { case (part, slot) =>
        var k = 0
        var i = 0
        while (i < slot.length) {
          System.arraycopy(part.topic, k, topic, topOff(slot(i)), part.nnz(i))
          System.arraycopy(part.prob, k, prob, topOff(slot(i)), part.nnz(i))
          k += part.nnz(i)
          i += 1
        }
      }
      new ReverseTopicCsr(numTopics, inOff, src, topOff, topic, prob)
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
          val bc = spark.sparkContext.broadcast(ReverseTopicCsr.build(edges, n))
          cached = Some(Cached(edges, n, bc))
          bc
      }
    }

  /** Samples partitioned across the cluster; each task runs a local reverse
    * BFS per (sample, piece) over the cached reverse topic-CSR of `edges`.
    * Edges with `p ≤ 0` are never live. A mistyped or missing edge column, a
    * null edge value, edge endpoints outside `[0, n)`, mixed topic arity
    * across edges, a non-zero topic probability p(e|z) outside (0, 1] (NaN
    * included) and pieces whose topic arity differs from the edges' raise an
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
