package repro.influence

import org.scalatest.funsuite.AnyFunSuite

class PieceSpec extends AnyFunSuite {

  test("a piece whose weights sum to zero is rejected") {
    val e = intercept[IllegalArgumentException](Piece(Array(0.0, 0.0)))
    assert(e.getMessage == "requirement failed: topic weights must sum to a value in (0, 1], got 0.0", e.getMessage)
  }

  test("a piece whose weights sum above 1 is rejected") {
    val e = intercept[IllegalArgumentException](Piece(Array(0.7, 0.0, 0.7)))
    assert(e.getMessage.contains("must sum to a value in (0, 1], got 1.4"), e.getMessage)
    intercept[IllegalArgumentException](Piece(Array(1.0, 1e-6)))
  }

  test("uniform mixtures, one-hot pieces and sub-distributions are accepted") {
    for (z <- Seq(1, 3, 7, 10, 20, 49, 50, 97, 1000)) {
      assert(Piece.uniformMixture(z).numTopics == z)
      assert(Piece.oneHot(z - 1, z).weights.sum == 1.0)
    }
    assert(Piece(Array(0.25, 0.0, 0.25)).numTopics == 3)
  }
}
