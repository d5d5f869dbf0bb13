package repro.core

/** Result of one `ComputeBound` invocation (Algorithms 2/3): the completed
  * candidate plan `S̄ ∪ S̄ᵃ`, its AU estimate σ (the branch's lower bound) and
  * the submodular upper-bound value τ(S̄|S̄ᵃ) (the branch's pruning bound),
  * both in utility units (already scaled by n/θ).
  */
final case class BoundResult(complete: Array[Int], sigma: Double, tau: Double)

/** Upper-bound estimators share the search's order, the index's `scanOrder`:
  * a heap node is `(included candidates, next undecided position)`, and
  * ComputeBound may only pick from positions ≥ `freeFrom` (remaining Vp).
  */
trait Bounder {

  /** The coverage index the bound is computed over. */
  def idx: CoverageIndex

  /** Fixed candidate ordering shared with the branch-and-bound search. */
  def order: Array[Int] = idx.scanOrder

  /** Estimate the bound for the subspace rooted at (`base`, `freeFrom`). */
  def computeBound(base: Array[Int], freeFrom: Int, k: Int): BoundResult

  /** Number of marginal τ(·|S̄ᵃ) evaluations so far (the paper's cost metric). */
  def tauEvals: Long
}

/** The ComputeBound kernel both bounders are built on: the per-call scratch
  * state and the τ-evaluation counter over the index's scan layout.
  * Subclasses add only their selection rule. Not thread-safe; a bounder
  * serves one call at a time.
  *
  * The scan reads the index's layout (`cand`, `piece`, `posOf`) and
  * `idx.coverage(cand(p))` in place and never writes them. `order` must be
  * the index's scan order, and `env` the table of its ℓ and of `params`.
  *
  * Scratch state, all zero between calls:
  *   - `key(s) = anchor·(ℓ+1) + count` for sample `s`, where `anchor` is the
  *     coverage S̄ᵃ delivers and `count` the running total. It indexes
  *     [[EnvelopeTable.gains]] directly: a base cell adds ℓ+2 (anchor and
  *     count), a selected cell adds 1;
  *   - `cells`: covered (sample, piece) cells, one bit each at `s·ℓ + piece`;
  *   - `touched`: one bit per sample whose key is non-zero;
  *   - `taken`: positions selected by this call.
  *
  * The base τ sum and σ are sums over all θ samples in ascending order. An
  * untouched sample has key 0 and adds `env.base(0)` or `adoptionProb(0)`,
  * both exactly `+0.0`, and `x + 0.0 == x` for the non-negative partial sums.
  * Visiting only the touched bits in ascending order therefore gives the same
  * doubles at O(touched + θ/64) per call. The σ pass also clears `key`,
  * `cells` and `touched`, and `result` clears `taken`.
  */
sealed abstract class KernelBounder(
    val idx: CoverageIndex,
    val env: EnvelopeTable,
    order: Array[Int],
    params: LogisticParams) extends Bounder {

  require(java.util.Arrays.equals(order, idx.scanOrder),
    "order must be the index's scan order, CoverageIndex.scanOrder (BranchAndBound.defaultOrder returns it)")
  require(env.ell == idx.ell, s"envelope table is for ℓ=${env.ell}, the index has ℓ=${idx.ell}")
  require(env.params == params, s"envelope table is for ${env.params}, the bounder for $params")

  private val ell = idx.ell
  private val stride = ell + 1
  private val gains = env.gains
  private val adopt = Array.tabulate(stride)(params.adoptionProb)

  protected final val cand: Array[Int] = idx.scanOrder
  protected final val posOf: Array[Int] = idx.scanPosition
  private val piece = idx.scanPiece
  protected final val size: Int = cand.length

  private val key = new Array[Int](idx.theta)
  private val cells = new Array[Long](((idx.theta.toLong * ell + 63) >> 6).toInt)
  private val touched = new Array[Long]((idx.theta + 63) >> 6)
  protected final val taken = new Array[Boolean](size)
  private val picked = new Array[Int](size)
  private var nPicked = 0

  /** τ accumulator in raw (per-sample) units. */
  private var tauRaw = 0.0

  /** Marginal τ evaluations so far; the subclass counts its own. */
  protected var evals = 0L
  final override def tauEvals: Long = evals

  /** Checks the call's arguments, then anchors the samples S̄ᵃ covers and sets
    * τ to Σᵢ env.base(aᵢ). Rejects before any state is written, so a bad call
    * leaves the bounder as it was.
    */
  protected final def begin(base: Array[Int], freeFrom: Int): Unit = {
    require(freeFrom >= 0 && freeFrom <= size, s"freeFrom $freeFrom out of [0, $size]")
    for (c <- base) require(c >= 0 && c < size, s"base candidate $c out of [0, $size)")
    for (c <- base) cover(idx.coverage(c), idx.pieceOf(c), stride + 1)
    var t = 0.0
    var w = 0
    while (w < touched.length) {
      var bits = touched(w)
      while (bits != 0) {
        t += env.base(key((w << 6) + java.lang.Long.numberOfTrailingZeros(bits)) / (stride + 1))
        bits &= bits - 1
      }
      w += 1
    }
    tauRaw = t
  }

  /** Marginal τ gain of adding the candidate at position `p` right now. */
  protected final def gainAt(p: Int): Double = {
    val pc = piece(p)
    val list = idx.coverage(cand(p))
    var g = 0.0
    var i = 0
    while (i < list.length) {
      val s = list(i)
      val bit = s * ell + pc
      if ((cells(bit >>> 6) & (1L << bit)) == 0) g += gains(key(s))
      i += 1
    }
    g
  }

  /** Covers the uncovered cells of `list` for piece `pc`, adding `step` to
    * each one's sample key, and returns the τ gain at the keys before the
    * step. `begin` may ignore it: τ's base comes from `env.base`, and every
    * key it reads (anchor = count ≤ ℓ − 1) lies inside [[EnvelopeTable.gains]].
    */
  private def cover(list: Array[Int], pc: Int, step: Int): Double = {
    var g = 0.0
    var i = 0
    while (i < list.length) {
      val s = list(i)
      val bit = s * ell + pc
      if ((cells(bit >>> 6) & (1L << bit)) == 0) {
        cells(bit >>> 6) |= 1L << bit
        g += gains(key(s))
        key(s) += step
        touched(s >>> 6) |= 1L << s
      }
      i += 1
    }
    g
  }

  /** Commits the candidate at position `p` into the selection. */
  protected final def select(p: Int): Unit = {
    tauRaw += cover(idx.coverage(cand(p)), piece(p), 1)
    taken(p) = true
    picked(nPicked) = p
    nPicked += 1
  }

  /** Number of candidates selected by this call so far. */
  protected final def selected: Int = nPicked

  /** The call's result — `base` plus the selection, σ and τ — after which the
    * scratch state is zero again.
    */
  protected final def result(base: Array[Int]): BoundResult = {
    val complete = java.util.Arrays.copyOf(base, base.length + nPicked)
    var i = 0
    while (i < nPicked) {
      complete(base.length + i) = cand(picked(i))
      taken(picked(i)) = false
      i += 1
    }
    nPicked = 0
    java.util.Arrays.sort(complete)
    val tau = idx.scale * tauRaw
    var s = 0.0
    var w = 0
    while (w < touched.length) {
      var bits = touched(w)
      if (bits != 0) {
        touched(w) = 0
        while (bits != 0) {
          val smp = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
          s += adopt(key(smp) % stride)
          key(smp) = 0
          var cw = (smp * ell) >>> 6
          val last = (smp * ell + ell - 1) >>> 6
          while (cw <= last) { cells(cw) = 0L; cw += 1 }
          bits &= bits - 1
        }
      }
      w += 1
    }
    BoundResult(complete, idx.scale * s, tau)
  }
}

/** Algorithm 2: greedy τ-maximizing selection.
  *
  * `computeBound` is the paper's literal plain-scan greedy — O(k·|free|)
  * marginal evaluations per call — because the evaluation's BAB-vs-BAB-P
  * speedup comparison is defined against that cost profile. The bounder is
  * its [[KernelBounder]], so it serves one call at a time.
  */
final class GreedyBounder(
    idx: CoverageIndex,
    env: EnvelopeTable,
    order: Array[Int],
    params: LogisticParams) extends KernelBounder(idx, env, order, params) {

  override def computeBound(base: Array[Int], freeFrom: Int, k: Int): BoundResult = {
    begin(base, freeFrom)
    val kPrime = k - base.length
    val cand = this.cand
    val taken = this.taken
    var scanned = 0L
    var done = false
    while (selected < kPrime && !done) {
      var bestP = -1
      var bestC = -1
      var bestG = 0.0
      var p = freeFrom
      while (p < size) {
        if (!taken(p)) {
          scanned += 1
          val g = gainAt(p)
          val c = cand(p)
          // Strictly-better wins; exact ties go to the lower candidate index.
          if (g > bestG || (g == bestG && g > 0 && (bestC < 0 || c < bestC))) {
            bestG = g; bestC = c; bestP = p
          }
        }
        p += 1
      }
      if (bestP < 0) done = true else select(bestP)
    }
    evals += scanned
    result(base)
  }
}

/** Algorithm 3: progressive upper-bound estimation. Candidates are sorted by
  * their individual (anchored) gain δ∅; a threshold `h` starting at the top
  * gain admits any candidate whose current marginal gain reaches it, breaks a
  * scan as soon as δ∅ falls under `h` (submodularity ⇒ nothing later can
  * qualify), lowers `h` by (1+ε) between scans, and stops early once
  * `h ≤ τ·e⁻¹ / ((k−|S̄ᵃ|)(1−e⁻¹))` — the power-law early exit that yields the
  * (1−1/e−ε) ratio (Theorem 3). Like [[GreedyBounder]], the bounder is its
  * [[KernelBounder]] and serves one call at a time.
  */
final class ProgressiveBounder(
    idx: CoverageIndex,
    env: EnvelopeTable,
    order: Array[Int],
    params: LogisticParams,
    eps: Double) extends KernelBounder(idx, env, order, params) {

  require(eps > 0, s"epsilon must be positive, got $eps")

  private val stopFactor = math.exp(-1.0) / (1.0 - math.exp(-1.0))

  // δ∅ per position, and the sort scratch of the δ∅ order.
  private val delta0 = new Array[Double](size)
  private val distinct = new Array[Double](size)
  private val keys = new Array[Long](size)
  private val byGain = new Array[Int](size)

  /** Sorts the free positions with δ∅ > 0 into `byGain` by δ∅ descending, ties
    * to the lower candidate, and returns how many there are. Zero-gain
    * candidates are left out: h stays above 0, so they would never be
    * admitted. Each is one packed key `rank << 32 | candidate`, where `rank`
    * counts the distinct larger δ∅ values.
    */
  private def sortByGain(freeFrom: Int): Int = {
    var n = 0
    var p = freeFrom
    while (p < size) {
      if (delta0(p) > 0) { distinct(n) = delta0(p); n += 1 }
      p += 1
    }
    java.util.Arrays.sort(distinct, 0, n)
    var nDistinct = 0
    var i = 0
    while (i < n) {
      if (nDistinct == 0 || distinct(i) != distinct(nDistinct - 1)) {
        distinct(nDistinct) = distinct(i)
        nDistinct += 1
      }
      i += 1
    }
    i = 0
    p = freeFrom
    while (p < size) {
      if (delta0(p) > 0) {
        val rank = nDistinct - 1 - java.util.Arrays.binarySearch(distinct, 0, nDistinct, delta0(p))
        keys(i) = rank.toLong << 32 | cand(p)
        i += 1
      }
      p += 1
    }
    java.util.Arrays.sort(keys, 0, n)
    i = 0
    while (i < n) { byGain(i) = posOf(keys(i).toInt); i += 1 }
    n
  }

  override def computeBound(base: Array[Int], freeFrom: Int, k: Int): BoundResult = {
    begin(base, freeFrom)
    val kPrime = k - base.length

    if (kPrime > 0 && freeFrom < size) {
      var q = freeFrom
      while (q < size) { delta0(q) = gainAt(q); q += 1 }
      evals += size - freeFrom
      val nGain = sortByGain(freeFrom)

      var h = if (nGain > 0) delta0(byGain(0)) else 0.0
      // Line 14's τ(S̄|S̄ᵃ) is the selection's gain over the empty selection
      // (τ(∅)=0 — exactly the normalization Lemma 3's geometric series uses);
      // the full Definition-6 τ, base included, is what gets *returned* as
      // the pruning bound.
      var tauGain = 0.0
      var stop = h <= 0
      while (!stop && selected < kPrime) {
        var i = 0
        var scanDone = false
        while (!scanDone && i < nGain && selected < kPrime) {
          val p = byGain(i)
          if (delta0(p) < h) scanDone = true // Lines 11–12: sorted ⇒ early break
          else if (!taken(p)) {
            evals += 1
            val g = gainAt(p)
            if (g >= h) { select(p); tauGain += g }
          }
          i += 1
        }
        if (selected < kPrime) {
          h = h / (1.0 + eps)
          if (h <= tauGain / kPrime * stopFactor) stop = true // Line 14 early exit
        }
      }
    }
    result(base)
  }
}
