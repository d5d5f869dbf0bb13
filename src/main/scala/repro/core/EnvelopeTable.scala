package repro.core

/** Precomputed envelope values over integer coverage counts.
  *
  * `value(a)(c)` = τ-contribution of a sample whose anchored coverage (from the
  * partial plan S̄ᵃ) is `a` when the candidate plan brings its total coverage
  * to `c ∈ [a, ℓ]`. Anchors are refined exactly as in the paper's Figure 2:
  * a larger anchor steepens (tightens) the envelope.
  *
  * Each row is the *discrete* upper concave hull of the true per-sample
  * adoption values on the anchored grid {a, …, ℓ} — the integer-grid
  * tightening of Algorithm 4's continuous tangent-line envelope (the
  * hull chord-ifies the convex part of the S-curve and follows it on the
  * concave part; tests pin hull ≤ continuous envelope, which the test-scope
  * `TangentBound` computes). Using the hull rather
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
