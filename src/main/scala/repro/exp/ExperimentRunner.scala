package repro.exp

import repro.influence.Piece
import repro.util.HashRng

/** Campaign pieces shared by the serving path and the evaluation harness.
  * Pieces are one-hot topic vectors over hash-shuffled distinct topics
  * ("uniformly sampling a non-zero topic dimension", §VI-A).
  */
object ExperimentRunner {

  private val TagPieceTopic = 401L

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
}
