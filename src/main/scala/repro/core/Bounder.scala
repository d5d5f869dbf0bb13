package repro.core

import scala.collection.mutable

/** Result of one `ComputeBound` invocation (Algorithms 2/3): the completed
  * candidate plan `S̄ ∪ S̄ᵃ`, its AU estimate σ (the branch's lower bound) and
  * the submodular upper-bound value τ(S̄|S̄ᵃ) (the branch's pruning bound),
  * both in utility units (already scaled by n/θ).
  */
final case class BoundResult(complete: Array[Int], sigma: Double, tau: Double)

/** Upper-bound estimators share the search's fixed candidate ordering: a heap
  * node is `(included candidates, next undecided position)`, and ComputeBound
  * may only pick from positions ≥ `freeFrom` (the paper's remaining Vp).
  */
trait Bounder {

  /** The coverage index the bound is computed over. */
  def idx: CoverageIndex

  /** Fixed candidate ordering shared with the branch-and-bound search. */
  def order: Array[Int]

  /** Estimate the bound for the subspace rooted at (`base`, `freeFrom`). */
  def computeBound(base: Array[Int], freeFrom: Int, k: Int): BoundResult

  /** Number of marginal τ(·|S̄ᵃ) evaluations so far (the paper's cost metric). */
  def tauEvals: Long
}

/** Shared per-call state: anchors from S̄ᵃ, covered cells, running coverage
  * counts, and the τ accumulator. Kept small and allocation-light — the
  * branch-and-bound invokes ComputeBound thousands of times.
  */
private[core] final class BoundState(val idx: CoverageIndex, val env: EnvelopeTable, base: Array[Int]) {
  val ell: Int = idx.ell
  val theta: Int = idx.theta

  /** Anchored coverage per sample: what S̄ᵃ already delivers (Figure 2's
    * refinement — anchors shift the tangent line to a larger gradient).
    */
  val anchor: Array[Int] = idx.coverageCounts(base)

  /** Covered (sample, piece) cells, including those covered by S̄ᵃ. */
  val cell = new java.util.BitSet(theta * ell)
  for (c <- base; s <- idx.coverage(c)) cell.set(s * ell + idx.pieceOf(c))

  /** Running total coverage per sample (starts at the anchor). */
  val cnt: Array[Int] = anchor.clone()

  /** τ accumulator in raw (per-sample) units; starts at Σᵢ env.base(aᵢ). */
  var tauRaw: Double = {
    var s = 0.0
    var i = 0
    while (i < theta) { s += env.base(anchor(i)); i += 1 }
    s
  }

  /** Marginal τ gain of adding candidate `c` right now. */
  def gainOf(c: Int): Double = {
    val piece = idx.pieceOf(c)
    val samples = idx.coverage(c)
    var g = 0.0
    var i = 0
    while (i < samples.length) {
      val s = samples(i)
      if (!cell.get(s * ell + piece)) g += env.gain(anchor(s), cnt(s))
      i += 1
    }
    g
  }

  /** Commit candidate `c` into the selection; returns its realized gain. */
  def select(c: Int): Double = {
    val piece = idx.pieceOf(c)
    val samples = idx.coverage(c)
    var g = 0.0
    var i = 0
    while (i < samples.length) {
      val s = samples(i)
      val bit = s * ell + piece
      if (!cell.get(bit)) {
        cell.set(bit)
        g += env.gain(anchor(s), cnt(s))
        cnt(s) += 1
      }
      i += 1
    }
    tauRaw += g
    g
  }

  /** σ estimate of the current (base ∪ selected) plan, in utility units. */
  def sigma(params: LogisticParams): Double = {
    var s = 0.0
    var i = 0
    while (i < theta) { s += params.adoptionProb(cnt(i)); i += 1 }
    idx.scale * s
  }
}

/** Algorithm 2: greedy τ-maximizing selection.
  *
  * `computeBound` is the paper's literal plain-scan greedy — O(k·|free|)
  * marginal evaluations per call — because the evaluation's BAB-vs-BAB-P
  * speedup comparison is defined against that cost profile.
  */
final class GreedyBounder(
    val idx: CoverageIndex,
    val env: EnvelopeTable,
    val order: Array[Int],
    params: LogisticParams) extends Bounder {

  private var evals = 0L
  override def tauEvals: Long = evals

  override def computeBound(base: Array[Int], freeFrom: Int, k: Int): BoundResult = {
    val st = new BoundState(idx, env, base)
    val kPrime = k - base.length
    val selected = mutable.ArrayBuffer.empty[Int]
    val taken = mutable.Set.empty[Int]
    var step = 0
    var done = false
    while (step < kPrime && !done) {
      var bestC = -1
      var bestG = 0.0
      var i = freeFrom
      while (i < order.length) {
        val c = order(i)
        if (!taken.contains(c)) {
          evals += 1
          val g = st.gainOf(c)
          // Strictly-better wins; exact ties go to the lower candidate index.
          if (g > bestG || (g == bestG && g > 0 && (bestC < 0 || c < bestC))) {
            bestG = g; bestC = c
          }
        }
        i += 1
      }
      if (bestC < 0) done = true
      else { st.select(bestC); selected += bestC; taken += bestC; step += 1 }
    }
    BoundResult((base ++ selected).sorted, st.sigma(params), idx.scale * st.tauRaw)
  }
}

/** Algorithm 3: progressive upper-bound estimation. Candidates are sorted by
  * their individual (anchored) gain δ∅; a threshold `h` starting at the top
  * gain admits any candidate whose current marginal gain reaches it, breaks a
  * scan as soon as δ∅ falls under `h` (submodularity ⇒ nothing later can
  * qualify), lowers `h` by (1+ε) between scans, and stops early once
  * `h ≤ τ·e⁻¹ / ((k−|S̄ᵃ|)(1−e⁻¹))` — the power-law early exit that yields the
  * (1−1/e−ε) ratio (Theorem 3).
  */
final class ProgressiveBounder(
    val idx: CoverageIndex,
    val env: EnvelopeTable,
    val order: Array[Int],
    params: LogisticParams,
    eps: Double) extends Bounder {

  require(eps > 0, s"epsilon must be positive, got $eps")

  private var evals = 0L
  override def tauEvals: Long = evals

  private val stopFactor = math.exp(-1.0) / (1.0 - math.exp(-1.0))

  override def computeBound(base: Array[Int], freeFrom: Int, k: Int): BoundResult = {
    val st = new BoundState(idx, env, base)
    val kPrime = k - base.length
    val selected = mutable.ArrayBuffer.empty[Int]

    if (kPrime > 0 && freeFrom < order.length) {
      val free = java.util.Arrays.copyOfRange(order, freeFrom, order.length)
      val delta0 = new Array[Double](free.length)
      var i = 0
      while (i < free.length) { evals += 1; delta0(i) = st.gainOf(free(i)); i += 1 }
      // Sort by individual gain, descending; ties to low candidate index.
      // Zero-gain candidates are left out: h stays above 0, so they would
      // never be admitted.
      val byGain = Array.range(0, free.length).filter(delta0(_) > 0).sortBy(i => (-delta0(i), free(i)))

      val taken = mutable.Set.empty[Int]
      var h = if (byGain.nonEmpty) delta0(byGain(0)) else 0.0
      // Line 14's τ(S̄|S̄ᵃ) is the selection's gain over the empty selection
      // (τ(∅)=0 — exactly the normalization Lemma 3's geometric series uses);
      // the full Definition-6 τ, base included, is what gets *returned* as
      // the pruning bound.
      var tauGain = 0.0
      var stop = h <= 0
      while (!stop && selected.length < kPrime) {
        var pos = 0
        var scanDone = false
        while (!scanDone && pos < byGain.length && selected.length < kPrime) {
          val fi = byGain(pos)
          val c = free(fi)
          if (delta0(fi) < h) scanDone = true // Lines 11–12: sorted ⇒ early break
          else if (!taken.contains(c)) {
            evals += 1
            val g = st.gainOf(c)
            if (g >= h) { st.select(c); selected += c; taken += c; tauGain += g }
          }
          pos += 1
        }
        if (selected.length < kPrime) {
          h = h / (1.0 + eps)
          if (h <= tauGain / kPrime * stopFactor) stop = true // Line 14 early exit
        }
      }
    }
    BoundResult((base ++ selected).sorted, st.sigma(params), idx.scale * st.tauRaw)
  }
}
