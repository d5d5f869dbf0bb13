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
  */
object TangentBound {

  private val RefineIters = 200

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

/** Precomputed envelope values over integer coverage counts.
  *
  * `value(a)(c)` = τ-contribution of a sample whose anchored coverage (from the
  * partial plan S̄ᵃ) is `a` when the candidate plan brings its total coverage
  * to `c ∈ [a, ℓ]`. Anchors are refined exactly as in the paper's Figure 2:
  * a larger anchor steepens (tightens) the envelope.
  *
  * Each row is the *discrete* upper concave hull of the true per-sample
  * adoption values on the anchored grid {a, …, ℓ} — the integer-grid
  * tightening of [[TangentBound]]'s continuous tangent-line envelope (the
  * hull chord-ifies the convex part of the S-curve and follows it on the
  * concave part; tests pin hull ≤ continuous envelope). Using the hull rather
  * than the continuous construction matters twice:
  *
  *   - at anchor 0 the true value is 0 at coverage 0 (Eqn 1's zero case,
  *     which the paper's Eqn 6 glosses over); a tangent from
  *     (0, sigmoid(−α)) would carry that constant slack on every uncovered
  *     sample and cripple pruning;
  *   - hulls are monotone under refinement — a tighter anchor can only lower
  *     the bound — which the branch-and-bound's descending subspaces rely on.
  */
final class EnvelopeTable(val params: LogisticParams, val ell: Int) {
  require(ell > 0, s"a campaign needs at least one piece, got $ell")

  /** Discrete upper concave hull over the anchored grid: hull(c) = max over
    * chords (i ≤ c ≤ j, i ≥ a) of the anchored point set — for a finite grid
    * exactly the minimal concave majorant Definition 6 asks for.
    */
  private def hullRow(a: Int): Array[Double] = {
    // True value at coverage c given the sample is already covered a times.
    def p(c: Int): Double = if (c <= a) params.adoptionProb(a) else params.adoptionProb(c)
    Array.tabulate(ell + 1) { c0 =>
      val c = math.max(c0, a)
      var best = p(c)
      for (i <- a to c; j <- c to ell if j > i) {
        val v = p(i) + (p(j) - p(i)) * (c - i).toDouble / (j - i)
        if (v > best) best = v
      }
      best
    }
  }

  private val table: Array[Array[Double]] = Array.tabulate(ell + 1)(hullRow)

  /** Envelope value for anchor `a`, coverage `c` (clamped to [a, ℓ]). */
  def value(a: Int, c: Int): Double = table(a)(math.min(math.max(c, a), ell))

  /** Base contribution of a sample anchored at `a` (candidate plan adds nothing). */
  def base(a: Int): Double = table(a)(a)

  /** Marginal envelope gain of raising coverage from `c` to `c+1` at anchor `a`. */
  def gain(a: Int, c: Int): Double =
    if (c >= ell) 0.0 else value(a, c + 1) - value(a, c)

  /** `gain` as one flat table: `gains(a·(ℓ+1) + c) == gain(a, c)`, the same
    * doubles, so the bound's scan reads a gain with one index. Read only.
    */
  val gains: Array[Double] =
    Array.tabulate((ell + 1) * (ell + 1))(i => gain(i / (ell + 1), i % (ell + 1)))
}
