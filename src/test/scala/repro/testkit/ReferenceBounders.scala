package repro.testkit

import repro.core.{BoundResult, Bounder, CoverageIndex, EnvelopeTable, LogisticParams}
import scala.collection.mutable

/** The straightforward ComputeBound of Algorithms 2 and 3, kept as the
  * reference the served `GreedyBounder` and `ProgressiveBounder` must match
  * bit for bit: same completed plans, same σ and τ doubles, same τ-evaluation
  * counts. Every call allocates fresh θ-sized state, keeps `taken` in a boxed
  * set and sorts the δ∅ order as tuples.
  */
object ReferenceBounders {

  /** Per-call state: anchors from S̄ᵃ, covered cells, running coverage counts
    * and the τ accumulator.
    */
  private final class State(idx: CoverageIndex, env: EnvelopeTable, base: Array[Int]) {
    val ell: Int = idx.ell
    val theta: Int = idx.theta
    val anchor: Array[Int] = idx.coverageCounts(base)
    val cell = new java.util.BitSet(theta * ell)
    for (c <- base; s <- idx.coverage(c)) cell.set(s * ell + idx.pieceOf(c))
    val cnt: Array[Int] = anchor.clone()

    /** Σᵢ env.base(aᵢ) over every sample, in ascending sample order. */
    var tauRaw: Double = {
      var s = 0.0
      var i = 0
      while (i < theta) { s += env.base(anchor(i)); i += 1 }
      s
    }

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

    /** σ over every sample, in ascending sample order, per-sample `adoptionProb`. */
    def sigma(params: LogisticParams): Double = {
      var s = 0.0
      var i = 0
      while (i < theta) { s += params.adoptionProb(cnt(i)); i += 1 }
      idx.scale * s
    }
  }

  /** Algorithm 2: plain-scan greedy τ maximization. */
  final class Greedy(
      val idx: CoverageIndex,
      val env: EnvelopeTable,
      override val order: Array[Int],
      params: LogisticParams) extends Bounder {

    private var evals = 0L
    override def tauEvals: Long = evals

    override def computeBound(base: Array[Int], freeFrom: Int, k: Int): BoundResult = {
      val st = new State(idx, env, base)
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

  /** Algorithm 3: progressive threshold scan over the δ∅ order. */
  final class Progressive(
      val idx: CoverageIndex,
      val env: EnvelopeTable,
      override val order: Array[Int],
      params: LogisticParams,
      eps: Double) extends Bounder {

    private var evals = 0L
    override def tauEvals: Long = evals

    private val stopFactor = math.exp(-1.0) / (1.0 - math.exp(-1.0))

    override def computeBound(base: Array[Int], freeFrom: Int, k: Int): BoundResult = {
      val st = new State(idx, env, base)
      val kPrime = k - base.length
      val selected = mutable.ArrayBuffer.empty[Int]

      if (kPrime > 0 && freeFrom < order.length) {
        val free = java.util.Arrays.copyOfRange(order, freeFrom, order.length)
        val delta0 = new Array[Double](free.length)
        var i = 0
        while (i < free.length) { evals += 1; delta0(i) = st.gainOf(free(i)); i += 1 }
        val byGain = Array.range(0, free.length).filter(delta0(_) > 0).sortBy(i => (-delta0(i), free(i)))

        val taken = mutable.Set.empty[Int]
        var h = if (byGain.nonEmpty) delta0(byGain(0)) else 0.0
        var tauGain = 0.0
        var stop = h <= 0
        while (!stop && selected.length < kPrime) {
          var pos = 0
          var scanDone = false
          while (!scanDone && pos < byGain.length && selected.length < kPrime) {
            val fi = byGain(pos)
            val c = free(fi)
            if (delta0(fi) < h) scanDone = true
            else if (!taken.contains(c)) {
              evals += 1
              val g = st.gainOf(c)
              if (g >= h) { st.select(c); selected += c; taken += c; tauGain += g }
            }
            pos += 1
          }
          if (selected.length < kPrime) {
            h = h / (1.0 + eps)
            if (h <= tauGain / kPrime * stopFactor) stop = true
          }
        }
      }
      BoundResult((base ++ selected).sorted, st.sigma(params), idx.scale * st.tauRaw)
    }
  }
}
