package repro.core

import repro.core.Logistic.sigmoid

/** Tangent-line upper bound on the logistic S-curve (§V-B, Algorithm 4).
  *
  * The per-sample bound τᵢ is the concave upper envelope of the sigmoid on
  * `[x₀, ∞)` where `x₀ = β·a − α` is the sigmoid argument at the sample's
  * current (anchored) coverage `a` under the partial plan S̄ᵃ:
  *
  *   - if `x₀ ≥ 0` the sigmoid is already concave to the right, so the
  *     envelope is the sigmoid itself;
  *   - if `x₀ < 0` the envelope follows the unique line through
  *     `(x₀, f(x₀))` tangent to the curve at some `t > 0`, then the curve
  *     beyond `t`.
  *
  * A concave nondecreasing function of the coverage count (itself a monotone
  * submodular function of the plan) is monotone submodular — this is what
  * makes the greedy ComputeBound a (1−1/e) approximation.
  *
  * Test scope: the served bound runs [[EnvelopeTable]]'s discrete hull, and
  * tests check that hull against this continuous construction.
  */
object TangentBound {

  private val RefineIters = 200

  /** Derivative of the sigmoid: f'(x) = f(x)(1 − f(x)). */
  def sigmoidDeriv(x: Double): Double = { val f = sigmoid(x); f * (1.0 - f) }

  /** Tangent point `t` for slope `w`: solves f'(t) = w on the concave side.
    * From w = f(t)(1−f(t)): f(t) = (1+√(1−4w))/2, t = ln((1+s)/(1−s)), s=√(1−4w).
    */
  def tangentPoint(w: Double): Double = {
    require(w > 0 && w <= 0.25, s"sigmoid slope must lie in (0, 1/4], got $w")
    val s = math.sqrt(math.max(0.0, 1.0 - 4.0 * w))
    if (s >= 1.0) Double.PositiveInfinity
    else math.log((1.0 + s) / (1.0 - s))
  }

  /** Algorithm 4 (`Refine`): slope of the unique line through `(x0, f(x0))`
    * tangent to the sigmoid on the concave side. Requires `x0 < 0` (otherwise
    * the envelope is the curve itself and no line is needed).
    *
    * Binary search on w ∈ (0, 1/4): for a candidate slope the line's value at
    * the would-be tangent point t(w) is compared against f(t); the line lying
    * above means the slope is too large.
    */
  def refineSlope(x0: Double): Double = {
    require(x0 < 0, s"refineSlope needs a point on the convex side (x0 < 0), got $x0")
    val fx0 = sigmoid(x0)
    var lo = 0.0
    var hi = 0.25
    var it = 0
    while (it < RefineIters && hi - lo > 1e-15) {
      val w = (lo + hi) / 2
      val t = tangentPoint(w)
      val lineAtT = w * (t - x0) + fx0
      if (lineAtT > sigmoid(t)) hi = w else lo = w
      it += 1
    }
    (lo + hi) / 2
  }

  /** Envelope value at `x ≥ x0`, anchored at `x0`. */
  def envelope(x0: Double, x: Double): Double = {
    require(x >= x0 - 1e-12, s"envelope is defined on [x0, ∞): x0=$x0, x=$x")
    if (x0 >= 0) sigmoid(x)
    else {
      val w = refineSlope(x0)
      val t = tangentPoint(w)
      if (x <= t) sigmoid(x0) + w * (x - x0) else sigmoid(x)
    }
  }
}

