package repro.influence

import java.lang.ref.WeakReference
import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types.{ArrayType, DoubleType, IntegerType, LongType, Metadata, MetadataBuilder, StructField, StructType}
import repro.util.HashRng
import scala.collection.mutable
import scala.reflect.ClassTag
import scala.util.Try

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
  * pass, each task checking its edges and sending back primitive arrays, and
  * laid out on the driver by a counting sort; it is broadcast and kept in a
  * single-slot cache keyed on the `edges` DataFrame's reference identity plus
  * `n`, so every campaign on one edge table reuses it. A call ships only its pieces' weight
  * vectors; the reverse BFS computes `p(t, e)` as a sparse dot over the
  * edge's topics at each edge it traverses. A cache miss drops the old broadcast without
  * destroying it, because lazy results returned earlier still read it, and so
  * do their index builds; Spark's ContextCleaner frees it once they are
  * unreachable. Each returned frame's task closure holds its one
  * [[Sampling]], which a registry maps the frame to without keeping either
  * alive, so `CoverageIndex.build` walks the same samples again, fused with
  * its promoter filter, instead of reading the rows.
  *
  * Contract: `edges` is the sparse topic edge table — columns `src: long`,
  * `dst: long`, `topics: array<int>` (strictly ascending) and `probs:
  * array<double>` (p(e|z) of each listed topic, in (0, 1]), with the graph's
  * |Z| in the `topics` field's metadata ([[topicsMetadata]]; see
  * `ReverseTopicCsr.build`), vertex ids are dense in
  * `[0, n)` (`n ≤ Int.MaxValue - 1`), and `edges` is deterministic —
  * recomputing it yields the same rows, as every in-repo source does because
  * they are hash-seeded.
  */
object MrrSampler {

  private val TagRoot = 201L
  private val TagCoin = 202L

  /** The `topics` field's metadata key that holds the graph's |Z|. */
  val NumTopicsKey = "numTopics"

  /** Metadata for an edge table's `topics` field on a graph of `numTopics`
    * topics: Spark keeps it through `select`, `persist` and
    * `createDataFrame` with an explicit schema.
    */
  def topicsMetadata(numTopics: Int): Metadata =
    new MetadataBuilder().putLong(NumTopicsKey, numTopics.toLong).build()

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
    * graph's |Z|.
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

    /** One partition's edges in input order, copied out of the edge rows
      * and checked: edge `i` runs `src(i) → dst(i)` and lists `nnz(i)`
      * topics in `topic`/`prob`, as its row lists them. `badEdge` names the
      * first edge that fails a check; the task stops there, and the driver
      * rejects the part without reading its arrays.
      */
    final case class Part(
        dst: Array[Int],
        src: Array[Int],
        nnz: Array[Int],
        topic: Array[Int],
        prob: Array[Double],
        badEdge: Option[String])

    /** One pass over the edge rows as `queryExecution.toRdd` yields them,
      * read in place at the four columns' ordinals: each task checks its
      * edges in input order and copies them out into one [[Part]] of
      * primitive arrays. The driver lays the edges out by `dst` with a
      * stable counting sort that takes the parts in order, so each vertex's
      * in-edges keep their edge-table order.
      *
      * Column contract: `src: long`, `dst: long`, `topics: array<int>` and
      * `probs: array<double>`, found by name, with the graph's |Z| as a
      * positive `numTopics` in the `topics` field's metadata
      * ([[topicsMetadata]]). A missing column or any other type (an `int`
      * endpoint or a dense table without `topics` included) raises an
      * `IllegalArgumentException` naming the column and both types; nothing
      * is cast. So does missing or non-positive `numTopics`, both checked on
      * the driver before the job. The first edge in input order that holds
      * a null endpoint, array or array element, `topics` and `probs` of
      * different lengths, an endpoint outside `[0, n)`, a topic outside
      * `[0, numTopics)`, topics that are not strictly ascending or a p(e|z)
      * outside (0, 1] raises one too, naming the edge; its checks run in
      * that order.
      */
    def build(edges: DataFrame, n: Long): ReverseTopicCsr = {
      val columns = Seq("src" -> LongType, "dst" -> LongType,
        "topics" -> ArrayType(IntegerType), "probs" -> ArrayType(DoubleType))
      for ((name, want) <- columns) {
        val got = edges.schema.find(_.name == name).map(_.dataType)
        require(got.map { case ArrayType(t, _) => ArrayType(t); case t => t }.contains(want),
          s"column $name must be ${want.simpleString}, got ${got.fold("no such column")(_.simpleString)}")
      }
      val meta = edges.schema("topics").metadata
      val numTopics = if (meta.contains(NumTopicsKey)) Try(meta.getLong(NumTopicsKey)).toOption else None
      require(numTopics.exists(z => z > 0 && z <= Int.MaxValue),
        s"column topics must carry a positive $NumTopicsKey in its metadata, got " +
          (if (meta.contains(NumTopicsKey)) meta.json else "none"))
      val z = numTopics.get.toInt
      // A fresh projection, not `edges`' own QueryExecution, whose executed
      // plan and scan buffers (about 5 MB on the tweet-like graph) the CSR
      // cache would keep alive through `edges`.
      val (si, di, ti, pi) = (0, 1, 2, 3)
      val parts = edges.sparkSession.sparkContext.runJob(
        edges.select("src", "dst", "topics", "probs").queryExecution.toRdd,
        (rows: Iterator[InternalRow]) => {
          val dst = new mutable.ArrayBuilder.ofInt
          val src = new mutable.ArrayBuilder.ofInt
          val nnz = new mutable.ArrayBuilder.ofInt
          val topic = new mutable.ArrayBuilder.ofInt
          val prob = new mutable.ArrayBuilder.ofDouble
          var badEdge: String = null
          while (badEdge == null && rows.hasNext) {
            val r = rows.next()
            if (r.isNullAt(si) || r.isNullAt(di)) {
              def show(i: Int): String = if (r.isNullAt(i)) "null" else r.getLong(i).toString
              badEdge = s"edge ${show(si)}→${show(di)} has a null endpoint"
            } else {
              val s = r.getLong(si)
              val d = r.getLong(di)
              def edge = s"edge $s→$d"
              if (r.isNullAt(ti)) badEdge = s"$edge has null topics"
              else if (r.isNullAt(pi)) badEdge = s"$edge has null probs"
              else {
                val ts = r.getArray(ti)
                val ps = r.getArray(pi)
                val a = ts.numElements()
                if (ps.numElements() != a) badEdge = s"$edge has $a topics but ${ps.numElements()} probs"
                var k = 0
                while (badEdge == null && k < a) {
                  if (ts.isNullAt(k)) badEdge = s"$edge has a null topic at position $k"
                  else if (ps.isNullAt(k)) badEdge = s"$edge has p(e|z=${ts.getInt(k)}) = null"
                  k += 1
                }
                if (badEdge == null && (d < 0 || d >= n)) badEdge = s"$edge has endpoint $d outside [0, $n)"
                if (badEdge == null && (s < 0 || s >= n)) badEdge = s"$edge has endpoint $s outside [0, $n)"
                k = 0
                var prev = -1
                while (badEdge == null && k < a) {
                  val t = ts.getInt(k)
                  val p = ps.getDouble(k)
                  if (t < 0 || t >= z) badEdge = s"$edge has topic $t outside [0, $z)"
                  else if (t <= prev) badEdge = s"$edge lists topic $t after topic $prev: topics must be strictly ascending"
                  else if (!(p > 0 && p <= 1)) badEdge = s"$edge has p(e|z=$t) = $p, outside (0, 1]"
                  else { topic += t; prob += p }
                  prev = t
                  k += 1
                }
                dst += d.toInt
                src += s.toInt
                nnz += a
              }
            }
          }
          Part(dst.result(), src.result(), nnz.result(), topic.result(), prob.result(), Option(badEdge))
        })

      // Every edge was checked in its task before its endpoints index anything.
      parts.foreach(_.badEdge.foreach(msg => throw new IllegalArgumentException(msg)))
      val inOff = new Array[Int](n.toInt + 1)
      parts.foreach(_.dst.foreach(d => inOff(d + 1) += 1))
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
          val d = part.dst(i)
          slot(i) = next(d)
          next(d) += 1
          src(slot(i)) = part.src(i)
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
      new ReverseTopicCsr(z, inOff, src, topOff, topic, prob)
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

  /** A reverse BFS over one task's copy of the CSR, for the campaign's
    * pieces: `walk(sample, piece)` grows the RR set of that (sample, piece)
    * world and returns its size; `reached(0 until size)` then lists its
    * vertices, root first, until the next walk. Edges with `p ≤ 0` are never
    * live. Its scratch is two `Int[n]` arrays.
    */
  final class Walker private[MrrSampler] (
      g: ReverseTopicCsr,
      n: Int,
      weights: Array[Array[Double]],
      seed: Long) {

    // seen(v) == epoch marks v reached in the current (sample, piece);
    // reached(0 until size) lists those vertices and doubles as the queue.
    private val seen = new Array[Int](n)
    val reached = new Array[Int](n)
    private var epoch = 0

    def walk(sample: Int, piece: Int): Int = {
      val w = weights(piece)
      val root = rootOf(sample, n.toLong, seed).toInt
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
      size
    }
  }

  /** How a sampler frame was drawn: its `theta` samples over `n` vertices,
    * its `ell` pieces and seed, and the CSR broadcast it walks. Built once per
    * frame, in `sampleBroadcast`, and held by that frame's own task closure.
    */
  final class Sampling private[MrrSampler] (
      csr: Broadcast[ReverseTopicCsr],
      weights: Array[Array[Double]],
      seed: Long,
      val theta: Int,
      val n: Long) extends Serializable {

    def ell: Int = weights.length

    // One partition per default-parallelism slice, each an ascending run of
    // sample ids, in order.
    private def slices(sc: SparkContext) = sc.parallelize(0 until theta, sc.defaultParallelism)

    // A task's walker over its copy of the CSR.
    private def walker(): Walker = new Walker(csr.value, n.toInt, weights, seed)

    /** One job over the samples, sliced as the frame slices them: each task
      * runs `task` over its samples and its own [[Walker]], and the results
      * come back in slice order.
      */
    def runJob[U: ClassTag](sc: SparkContext)(task: (Iterator[Int], Walker) => U): Array[U] =
      sc.runJob(slices(sc), (samples: Iterator[Int]) => task(samples, walker()))

    /** The lazy `(sample, piece, v)` rows of every walk. */
    private[MrrSampler] def frame(spark: SparkSession): DataFrame = {
      val rows = slices(spark.sparkContext).mapPartitions { samples =>
        val w = walker()
        samples.flatMap { sample =>
          (0 until ell).iterator.flatMap { piece =>
            val reached = w.walk(sample, piece)
            Iterator.range(0, reached).map(i => Row(sample, piece, w.reached(i).toLong))
          }
        }
      }
      spark.createDataFrame(rows, RowSchema)
    }
  }

  // Each frame sampleBroadcast returned, with its Sampling. Keys are weak and
  // compared by identity (a Dataset keeps Object's equals, and persist and
  // cache return the frame itself). Values are weak too: the frame's own
  // closure holds its Sampling, and the registry keeps alive nothing its
  // frames do not.
  private val drawn =
    java.util.Collections.synchronizedMap(new java.util.WeakHashMap[DataFrame, WeakReference[Sampling]])

  /** The sampling behind a frame `sampleBroadcast` returned (or that frame
    * persisted or cached), or `None` for any other frame, a union or
    * projection of one included.
    */
  private[repro] def samplingOf(frame: DataFrame): Option[Sampling] =
    Option(drawn.get(frame)).flatMap(s => Option(s.get))

  /** Samples partitioned across the cluster; each task runs a local reverse
    * BFS ([[Walker]]) per (sample, piece) over the cached reverse topic-CSR
    * of `edges`. The frame is lazy and registered with its [[Sampling]], so
    * `CoverageIndex.build` can run the same walks fused with its promoter
    * filter instead of reading the rows. A mistyped or missing edge column,
    * missing or non-positive `numTopics` metadata, a null edge value or
    * array element, edge endpoints outside `[0, n)`, `topics` and `probs` of
    * different lengths, a topic outside `[0, |Z|)`, topics that are not
    * strictly ascending, a topic probability p(e|z) outside (0, 1] (NaN
    * included) and pieces whose topic arity differs from the graph's |Z|
    * raise an `IllegalArgumentException` on the driver, naming the edge,
    * before sampling starts, and so does an empty piece list. The per-edge
    * checks run in the CSR build's tasks, so the first bad edge in input
    * order is the one named.
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
      require(t.numTopics == numTopics,
        s"topic arity mismatch: edge=$numTopics, piece=${t.numTopics}")
    }
    val sampling = new Sampling(bc, pieces.map(_.weights).toArray, cfg.seed, cfg.theta, n)
    val frame = sampling.frame(spark)
    drawn.put(frame, new WeakReference(sampling))
    frame
  }
}
