package repro.influence

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Topic-aware influence graph substrate (§III-A).
  *
  * Edges are a DataFrame with schema `(src: Long, dst: Long, probs: Array
  * [Double])` where `probs(z) = p(e|z)`, vertex ids dense in `[0, n)`. All
  * per-piece influence graphs are projections of this one table; the sampler
  * evaluates `p(t, e)` ([[Piece.edgeProb]]) only at the edges it traverses.
  */
object TopicGraph {

  /** Canonical edge row type for driver-side (exact/simulated) evaluation. */
  final case class TopicEdge(src: Long, dst: Long, probs: Array[Double])

  /** Build the edge DataFrame from in-memory edges (tests, examples). */
  def fromEdges(spark: SparkSession, edges: Seq[TopicEdge]): DataFrame = {
    val arity = edges.headOption.map(_.probs.length)
    require(edges.forall(e => arity.contains(e.probs.length)),
      "all edges must carry the same number of topics")
    import spark.implicits._
    edges.map(e => (e.src, e.dst, e.probs.toSeq)).toDF("src", "dst", "probs")
  }

  /** Collect edges to the driver (exact oracle / forward simulator inputs). */
  def collectEdges(edges: DataFrame): Seq[TopicEdge] =
    edges.select("src", "dst", "probs").collect().toSeq.map { r =>
      TopicEdge(r.getLong(0), r.getLong(1), r.getSeq[Double](2).toArray)
    }
}
