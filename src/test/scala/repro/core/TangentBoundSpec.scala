package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Logistic.sigmoid

class TangentBoundSpec extends AnyFunSuite {

  private val anchors = Seq(-8.0, -5.0, -3.0, -2.0, -1.0, -0.5, -0.1, -0.01)

  test("refineSlope lies in (0, 1/4)") {
    anchors.foreach { x0 =>
      val w = TangentBound.refineSlope(x0)
      assert(w > 0 && w < 0.25, s"x0=$x0 w=$w")
    }
  }

  test("refineSlope rejects concave-side anchors") {
    intercept[IllegalArgumentException](TangentBound.refineSlope(0.0))
    intercept[IllegalArgumentException](TangentBound.refineSlope(1.5))
  }

  test("tangentPoint inverts the sigmoid derivative") {
    for (t <- Seq(0.5, 1.0, 2.0, 5.0)) {
      val w = TangentBound.sigmoidDeriv(t)
      assert(math.abs(TangentBound.tangentPoint(w) - t) < 1e-9, s"t=$t")
    }
  }

  test("tangentPoint at maximal slope is zero") {
    assert(TangentBound.tangentPoint(0.25) == 0.0)
  }

  test("tangent line touches the curve at the tangent point") {
    anchors.foreach { x0 =>
      val w = TangentBound.refineSlope(x0)
      val t = TangentBound.tangentPoint(w)
      val lineAtT = sigmoid(x0) + w * (t - x0)
      assert(math.abs(lineAtT - sigmoid(t)) < 1e-6, s"x0=$x0: line=$lineAtT f=${sigmoid(t)}")
      assert(math.abs(w - TangentBound.sigmoidDeriv(t)) < 1e-6)
    }
  }

  test("tangent point lies on the concave side (t > 0) for x0 < 0") {
    anchors.foreach { x0 =>
      val t = TangentBound.tangentPoint(TangentBound.refineSlope(x0))
      assert(t >= 0, s"x0=$x0 t=$t")
    }
  }

  test("envelope equals the sigmoid at the anchor") {
    (anchors ++ Seq(0.0, 1.0, 3.0)).foreach { x0 =>
      assert(math.abs(TangentBound.envelope(x0, x0) - sigmoid(x0)) < 1e-9)
    }
  }

  test("envelope upper-bounds the sigmoid everywhere right of the anchor") {
    for (x0 <- anchors ++ Seq(0.0, 0.7, 2.0); di <- 0 to 48; d = di * 0.25) {
      val x = x0 + d
      assert(TangentBound.envelope(x0, x) >= sigmoid(x) - 1e-9, s"x0=$x0 x=$x")
    }
  }

  test("envelope from a concave-side anchor is the sigmoid itself") {
    for (x0 <- Seq(0.0, 0.5, 2.0); di <- 0 to 10; d = di * 0.5) {
      assert(TangentBound.envelope(x0, x0 + d) == sigmoid(x0 + d))
    }
  }

  test("envelope is non-decreasing in x") {
    anchors.foreach { x0 =>
      val xs = (0 to 60).map(i => x0 + i * 0.2)
      xs.map(TangentBound.envelope(x0, _)).sliding(2).foreach { case Seq(a, b) =>
        assert(b >= a - 1e-12, s"x0=$x0")
      }
    }
  }

  test("envelope is concave: discrete marginals are non-increasing") {
    anchors.foreach { x0 =>
      val vals = (0 to 30).map(i => TangentBound.envelope(x0, x0 + i * 0.5))
      val gains = vals.sliding(2).map { case Seq(a, b) => b - a }.toSeq
      gains.sliding(2).foreach { case Seq(g1, g2) =>
        assert(g2 <= g1 + 1e-9, s"x0=$x0 gains=$gains")
      }
    }
  }

  test("tighter anchors give tighter envelopes (Figure 2 refinement)") {
    for (x0 <- Seq(-6.0, -3.0, -1.0); x1 <- Seq(x0 + 0.5, x0 + 1.5); di <- 0 to 16; d = di * 0.5) {
      val x = math.max(x0, x1) + d
      assert(TangentBound.envelope(x1, x) <= TangentBound.envelope(x0, x) + 1e-9,
        s"x0=$x0 x1=$x1 x=$x")
    }
  }

  test("envelope rejects points left of the anchor") {
    intercept[IllegalArgumentException](TangentBound.envelope(-1.0, -2.0))
  }

  test("EnvelopeTable is sandwiched between the sigmoid and the continuous envelope") {
    // The discrete hull tightens the Algorithm-4 tangent construction on the
    // integer grid: sigmoid(x(c)) ≤ hull(a, c) ≤ continuous envelope.
    val params = LogisticParams(3.0, 1.0)
    val env = new EnvelopeTable(params, 5)
    for (a <- 1 to 5; c <- a to 5) {
      assert(env.value(a, c) >= sigmoid(params.x(c)) - 1e-12, s"a=$a c=$c")
      assert(env.value(a, c) <= TangentBound.envelope(params.x(a), params.x(c)) + 1e-9,
        s"a=$a c=$c")
    }
  }

  test("EnvelopeTable equals the sigmoid on the concave region") {
    // Once x(a) ≥ 0 the points are concave, so the minimal majorant is exact.
    val params = LogisticParams(2.0, 1.0)
    val env = new EnvelopeTable(params, 5)
    for (a <- 2 to 5; c <- a to 5) { // x(a) = a − 2 ≥ 0
      assert(math.abs(env.value(a, c) - sigmoid(params.x(c))) < 1e-12, s"a=$a c=$c")
    }
  }

  test("EnvelopeTable refinement is monotone: tighter anchors never loosen the bound") {
    val params = LogisticParams(3.0, 1.0)
    val env = new EnvelopeTable(params, 5)
    for (a <- 0 until 5; c <- (a + 1) to 5) {
      assert(env.value(a + 1, c) <= env.value(a, c) + 1e-12, s"a=$a c=$c")
    }
  }

  test("anchor-0 row is the discrete concave hull through the zero case") {
    val params = LogisticParams(3.0, 1.0)
    val env = new EnvelopeTable(params, 5)
    assert(env.value(0, 0) == 0.0) // Eqn 1: no piece received → utility 0
    // Majorizes the true values, concave, and tighter than the continuous
    // tangent envelope anchored at sigmoid(−α) > 0.
    for (c <- 0 to 5) {
      assert(env.value(0, c) >= params.adoptionProb(c) - 1e-12, s"c=$c")
      assert(env.value(0, c) <= TangentBound.envelope(params.x(0), params.x(c)) + 1e-9, s"c=$c")
    }
    for (c <- 0 until 4) {
      assert(env.gain(0, c + 1) <= env.gain(0, c) + 1e-12, s"c=$c")
    }
  }

  test("anchor-0 hull is exact when the sigmoid part is concave") {
    // With alpha < beta the curve is concave from c=1 on, so the hull is the
    // chord 0→1 then the curve itself.
    val params = LogisticParams(0.5, 1.0)
    val env = new EnvelopeTable(params, 3)
    for (c <- 1 to 3) {
      assert(math.abs(env.value(0, c) - params.adoptionProb(c)) < 1e-12, s"c=$c")
    }
  }

  test("EnvelopeTable bounds the true per-sample adoption value") {
    val params = LogisticParams(2.5, 1.0)
    val env = new EnvelopeTable(params, 4)
    for (a <- 0 to 4; c <- a to 4) {
      assert(env.value(a, c) >= params.adoptionProb(c) - 1e-12, s"a=$a c=$c")
    }
  }

  test("EnvelopeTable gains are non-increasing in coverage (submodularity)") {
    val env = new EnvelopeTable(LogisticParams(4.0, 1.0), 5)
    for (a <- 0 to 4; c <- a until 4) {
      assert(env.gain(a, c + 1) <= env.gain(a, c) + 1e-12, s"a=$a c=$c")
    }
  }

  test("EnvelopeTable gain vanishes at the piece-count ceiling") {
    val env = new EnvelopeTable(LogisticParams(3.0, 1.0), 3)
    (0 to 3).foreach(a => assert(env.gain(a, 3) == 0.0))
  }

  test("EnvelopeTable clamps coverage outside [a, ell]") {
    val env = new EnvelopeTable(LogisticParams(3.0, 1.0), 3)
    assert(env.value(2, 0) == env.value(2, 2))
    assert(env.value(1, 9) == env.value(1, 3))
  }

  test("EnvelopeTable base is the sigmoid at anchors >= 1, zero at anchor 0") {
    val params = LogisticParams(3.0, 1.0)
    val env = new EnvelopeTable(params, 4)
    assert(env.base(0) == 0.0)
    (1 to 4).foreach(a => assert(math.abs(env.base(a) - sigmoid(params.x(a))) < 1e-12))
  }

  test("envelope slope transitions continuously into the curve at t") {
    val x0 = -4.0
    val w = TangentBound.refineSlope(x0)
    val t = TangentBound.tangentPoint(w)
    val before = TangentBound.envelope(x0, t - 1e-6)
    val after = TangentBound.envelope(x0, t + 1e-6)
    assert(math.abs(after - before) < 1e-5)
  }
}
