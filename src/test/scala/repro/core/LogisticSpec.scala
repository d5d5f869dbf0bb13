package repro.core

import org.scalatest.funsuite.AnyFunSuite

class LogisticSpec extends AnyFunSuite {

  test("sigmoid at zero is one half") {
    assert(Logistic.sigmoid(0.0) == 0.5)
  }

  test("sigmoid is symmetric: f(x) + f(-x) = 1") {
    for (x <- Seq(-5.0, -1.3, 0.7, 2.0, 9.9)) {
      assert(math.abs(Logistic.sigmoid(x) + Logistic.sigmoid(-x) - 1.0) < 1e-12)
    }
  }

  test("sigmoid is numerically stable at extremes") {
    assert(Logistic.sigmoid(1000.0) == 1.0)
    assert(Logistic.sigmoid(-1000.0) == 0.0)
    assert(!Logistic.sigmoid(-745.0).isNaN)
  }

  test("sigmoid is strictly increasing") {
    val xs = (-50 to 50).map(_ / 5.0)
    xs.sliding(2).foreach { case Seq(a, b) =>
      assert(Logistic.sigmoid(a) < Logistic.sigmoid(b))
    }
  }

  test("sigmoidDeriv matches numeric differentiation") {
    for (x <- Seq(-3.0, -0.5, 0.0, 1.0, 4.0)) {
      val h = 1e-6
      val numeric = (Logistic.sigmoid(x + h) - Logistic.sigmoid(x - h)) / (2 * h)
      assert(math.abs(TangentBound.sigmoidDeriv(x) - numeric) < 1e-6)
    }
  }

  test("sigmoidDeriv peaks at 1/4") {
    assert(math.abs(TangentBound.sigmoidDeriv(0.0) - 0.25) < 1e-12)
    assert(TangentBound.sigmoidDeriv(2.0) < 0.25)
  }

  test("adoption probability is zero with no pieces received (Eqn 1)") {
    assert(LogisticParams(3.0, 1.0).adoptionProb(0) == 0.0)
    assert(LogisticParams(3.0, 1.0).adoptionProb(-1) == 0.0)
  }

  test("Example 1 values: alpha=3, beta=1 gives 0.12 / 0.27") {
    val p = LogisticParams(3.0, 1.0)
    assert(math.abs(p.adoptionProb(1) - 0.1192) < 1e-3) // paper rounds to 0.12
    assert(math.abs(p.adoptionProb(2) - 0.2689) < 1e-3) // paper rounds to 0.27
  }

  test("adoption probability is monotone in coverage count") {
    val p = LogisticParams(2.0, 1.0)
    (0 to 9).foreach(c => assert(p.adoptionProb(c) < p.adoptionProb(c + 1)))
  }

  test("larger alpha makes adoption harder") {
    assert(LogisticParams(4.0, 1.0).adoptionProb(2) < LogisticParams(2.0, 1.0).adoptionProb(2))
  }

  test("larger beta makes each piece count more") {
    assert(LogisticParams(3.0, 2.0).adoptionProb(2) > LogisticParams(3.0, 1.0).adoptionProb(2))
  }

  test("fromRatio fixes beta=1 and derives alpha") {
    val p = LogisticParams.fromRatio(0.5)
    assert(p.beta == 1.0)
    assert(math.abs(p.alpha - 2.0) < 1e-12)
    assert(math.abs(LogisticParams.fromRatio(0.3).alpha - 1.0 / 0.3) < 1e-12)
  }

  test("x(c) is the sigmoid argument beta*c - alpha") {
    val p = LogisticParams(3.0, 2.0)
    assert(p.x(0) == -3.0)
    assert(p.x(2) == 1.0)
  }

  test("parameters must be positive") {
    intercept[IllegalArgumentException](LogisticParams(0.0, 1.0))
    intercept[IllegalArgumentException](LogisticParams(1.0, -1.0))
    intercept[IllegalArgumentException](LogisticParams.fromRatio(0.0))
  }
}
