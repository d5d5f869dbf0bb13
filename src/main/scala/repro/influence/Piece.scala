package repro.influence

/** A viral piece: a probability distribution over the hidden topics Z.
  *
  * The experiments use one-hot pieces ("uniformly sampling a non-zero topic
  * dimension", §VI-A); arbitrary mixtures are supported because the IM
  * baseline propagates a uniform topic mixture.
  */
final case class Piece(weights: Array[Double]) {
  require(weights.nonEmpty, "a piece needs at least one topic weight")
  require(weights.forall(w => w >= 0 && w <= 1), "topic weights must lie in [0,1]")
  // A distribution: a sum above 1 would have the BFS clip p(t, e) to 1, and
  // an all-zero piece spreads nowhere. The slack admits rounding such as
  // uniformMixture's |Z| terms of 1/|Z|.
  require(weights.sum > 0 && weights.sum <= 1 + Piece.SumSlack,
    s"topic weights must sum to a value in (0, 1], got ${weights.sum}")

  def numTopics: Int = weights.length
}

object Piece {

  private val SumSlack = 1e-9

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
