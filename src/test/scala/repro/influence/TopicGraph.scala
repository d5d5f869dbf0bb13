package repro.influence

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{ArrayType, DoubleType, IntegerType, LongType, StructField, StructType}
import scala.jdk.CollectionConverters._

/** Topic-aware influence graph substrate (§III-A).
  *
  * The served edge table is sparse: `(src: Long, dst: Long, topics:
  * Array[Int], probs: Array[Double])`, where `topics` lists the edge's
  * non-zero topics ascending, `probs(k) = p(e|topics(k))` and the graph's
  * |Z| is the `topics` field's metadata (`MrrSampler.topicsMetadata`);
  * vertex ids are dense in `[0, n)`. Driver-side references read it back as
  * dense [[TopicEdge]]s. All per-piece influence graphs are projections of
  * this one table; the sampler evaluates `p(t, e)` ([[edgeProb]]) only at
  * the edges it traverses.
  */
object TopicGraph {

  /** p(t, e) = t · p(e): piece `t`'s activation probability through an edge
    * with topic vector `edgeProbs`, summed densely over every topic. The dense
    * reference for the sampler's sparse sum.
    */
  def edgeProb(t: Piece, edgeProbs: Array[Double]): Double = {
    require(edgeProbs.length == t.weights.length,
      s"topic arity mismatch: edge=${edgeProbs.length}, piece=${t.weights.length}")
    var s = 0.0
    var z = 0
    while (z < t.weights.length) { s += t.weights(z) * edgeProbs(z); z += 1 }
    math.min(1.0, s)
  }

  /** Canonical edge row type for driver-side (exact/simulated) evaluation:
    * the dense topic vector, `probs(z) = p(e|z)`.
    */
  final case class TopicEdge(src: Long, dst: Long, probs: Array[Double])

  /** Build the sparse edge table from in-memory dense edges (tests,
    * examples): each edge keeps its non-zero entries.
    */
  def fromEdges(spark: SparkSession, edges: Seq[TopicEdge]): DataFrame = {
    require(edges.nonEmpty, "need at least one edge to know the topic arity")
    val arity = edges.head.probs.length
    require(edges.forall(_.probs.length == arity), "all edges must carry the same number of topics")
    val rows = edges.map { e =>
      val topics = e.probs.indices.filter(e.probs(_) != 0.0)
      Row(e.src, e.dst, topics, topics.map(e.probs(_)))
    }
    spark.createDataFrame(rows.asJava, StructType(Seq(
      StructField("src", LongType, nullable = false),
      StructField("dst", LongType, nullable = false),
      StructField("topics", ArrayType(IntegerType, containsNull = false), nullable = false,
        MrrSampler.topicsMetadata(arity)),
      StructField("probs", ArrayType(DoubleType, containsNull = false), nullable = false))))
  }

  /** Collect edges to the driver as dense [[TopicEdge]]s of the table's |Z|
    * (exact oracle / forward simulator inputs).
    */
  def collectEdges(edges: DataFrame): Seq[TopicEdge] = {
    val numTopics = edges.schema("topics").metadata.getLong(MrrSampler.NumTopicsKey).toInt
    edges.select("src", "dst", "topics", "probs").collect().toSeq.map { r =>
      val probs = new Array[Double](numTopics)
      r.getSeq[Int](2).zip(r.getSeq[Double](3)).foreach { case (z, p) => probs(z) = p }
      TopicEdge(r.getLong(0), r.getLong(1), probs)
    }
  }
}
