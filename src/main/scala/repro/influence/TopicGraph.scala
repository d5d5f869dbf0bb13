package repro.influence

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A viral piece: a probability distribution over the hidden topics Z.
  *
  * The experiments use one-hot pieces ("uniformly sampling a non-zero topic
  * dimension", §VI-A); arbitrary mixtures are supported because the IM
  * baseline propagates a uniform topic mixture.
  */
final case class Piece(weights: Array[Double]) {
  require(weights.nonEmpty, "a piece needs at least one topic weight")
  require(weights.forall(w => w >= 0 && w <= 1), "topic weights must lie in [0,1]")

  def numTopics: Int = weights.length

  /** p(t, e) = t · p(e): the piece's activation probability through an edge. */
  def edgeProb(edgeProbs: Array[Double]): Double = {
    require(edgeProbs.length == weights.length,
      s"topic arity mismatch: edge=${edgeProbs.length}, piece=${weights.length}")
    var s = 0.0
    var z = 0
    while (z < weights.length) { s += weights(z) * edgeProbs(z); z += 1 }
    math.min(1.0, s)
  }
}

object Piece {

  /** A piece entirely about topic `topic` (the experiments' default shape). */
  def oneHot(topic: Int, numTopics: Int): Piece = {
    require(topic >= 0 && topic < numTopics, s"topic $topic out of [0, $numTopics)")
    val w = new Array[Double](numTopics)
    w(topic) = 1.0
    Piece(w)
  }

  /** Uniform mixture over all topics — the topic-agnostic view used by the
    * IM baseline, equivalent to averaging p(e|z) over z.
    */
  def uniformMixture(numTopics: Int): Piece =
    Piece(Array.fill(numTopics)(1.0 / numTopics))
}

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
