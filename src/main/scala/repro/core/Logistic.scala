package repro.core

/** The logistic adoption model of Eqn (1).
  *
  * A user that receives `c ≥ 1` distinct viral pieces adopts the campaign with
  * probability `sigmoid(β·c − α)`; a user that receives none adopts with
  * probability 0. `α` controls how hard adoption is; `β` weighs each piece.
  *
  * Note the paper's Eqn (6) estimator drops the `c = 0 → 0` case; we keep it
  * (see DESIGN.md §1) so the estimator is unbiased for Eqn (1)'s σ.
  */
final case class LogisticParams(alpha: Double, beta: Double) {
  require(alpha > 0, s"alpha must be positive, got $alpha")
  require(beta > 0, s"beta must be positive, got $beta")

  /** The sigmoid argument for coverage count `c`: x = β·c − α. */
  def x(c: Int): Double = beta * c - alpha

  /** Adoption probability of a user reached by `c` distinct pieces (Eqn 1). */
  def adoptionProb(c: Int): Double =
    if (c <= 0) 0.0 else Logistic.sigmoid(x(c))
}

object LogisticParams {

  /** Paper parameterization: β = 1 and a `β/α` ratio (Table IV). */
  def fromRatio(betaOverAlpha: Double): LogisticParams = {
    require(betaOverAlpha > 0, s"beta/alpha must be positive, got $betaOverAlpha")
    LogisticParams(alpha = 1.0 / betaOverAlpha, beta = 1.0)
  }
}

object Logistic {

  /** Numerically stable sigmoid 1/(1+e^{-x}). */
  def sigmoid(x: Double): Double =
    if (x >= 0) 1.0 / (1.0 + math.exp(-x))
    else { val e = math.exp(x); e / (1.0 + e) }
}
