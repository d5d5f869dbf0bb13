package repro.core

import scala.collection.mutable

/** Configuration of the branch-and-bound search (Algorithm 1).
  *
  * @param k             assignment budget Σ|Sⱼ|
  * @param gapTol        relative bound gap at which the search stops —
  *                      the paper's experiments use 1 % (§VI-A)
  * @param maxBoundCalls safety valve on ComputeBound invocations; on hit the
  *                      best plan so far is returned with the achieved gap
  */
final case class BabConfig(k: Int, gapTol: Double = 0.01, maxBoundCalls: Int = 20000) {
  require(k > 0, s"budget must be positive, got $k")
  require(gapTol >= 0, s"gap tolerance must be non-negative, got $gapTol")
  require(maxBoundCalls > 0, s"maxBoundCalls must be positive, got $maxBoundCalls")
}

/** Outcome of a branch-and-bound run.
  *
  * @param candidates selected candidate set (promoter × piece indices)
  * @param plan       vertex-level view of the plan
  * @param sigma      AU estimate of the plan (global lower bound L)
  * @param upperBound global upper bound U when the search stopped
  * @param gap        (U − L)/L at termination (0 when the heap drained)
  */
final case class BabResult(
    candidates: Array[Int],
    plan: Plan,
    sigma: Double,
    upperBound: Double,
    gap: Double,
    boundCalls: Int,
    tauEvals: Long)

/** Branch-and-bound framework for OIPA (Algorithm 1).
  *
  * Candidates — (promoter, piece) assignments — are ordered by individual
  * influence (RR coverage, descending) so high-influence promoters are
  * branched first, per the paper's power-law prioritization. A heap node
  * fixes a decision prefix: `included` holds the candidates taken among the
  * first `nextIdx` positions; all positions ≥ `nextIdx` are undecided.
  * Expanding a node branches on position `nextIdx` (include / exclude) and
  * scores both children with the supplied [[Bounder]]; a child is enqueued
  * only while its bound exceeds the best utility found (pruning).
  */
object BranchAndBound {

  /** Candidate ordering: RR-coverage size descending, index ascending. The
    * individual τ gain at the root is `|coverage|·envGain(0,0)`, so this *is*
    * the individual-influence order. Sorted as one packed `Long` key per
    * candidate, `(Int.MaxValue − |coverage|) << 32 | c`, without boxing.
    */
  def defaultOrder(idx: CoverageIndex): Array[Int] = {
    val keys = Array.tabulate(idx.candidateCount) { c =>
      (Int.MaxValue - idx.coverage(c).length).toLong << 32 | c
    }
    java.util.Arrays.sort(keys)
    keys.map(_.toInt)
  }

  /** Algorithm 1 over `idx`. The bounder must be built over `idx` itself: its
    * candidates are read back as vertices through `idx.toPlan`.
    */
  def run(idx: CoverageIndex, params: LogisticParams, bounder: Bounder, cfg: BabConfig): BabResult = {
    require(bounder.idx eq idx,
      s"the bounder's index (θ=${bounder.idx.theta}, ℓ=${bounder.idx.ell}, ${bounder.idx.candidateCount} candidates) " +
        s"is not the search's (θ=${idx.theta}, ℓ=${idx.ell}, ${idx.candidateCount} candidates)")
    val order = bounder.order
    val evals0 = bounder.tauEvals

    var calls = 0
    def bound(base: Array[Int], freeFrom: Int): BoundResult = {
      calls += 1
      bounder.computeBound(base, freeFrom, cfg.k)
    }

    val root = bound(Array.empty, 0)
    var lower = root.sigma
    var best = root.complete
    var upper = math.max(root.tau, lower)

    // Max-heap over the subspace bound U.
    final case class Node(u: Double, included: Array[Int], nextIdx: Int)
    val heap = mutable.PriorityQueue.empty[Node](Ordering.by(_.u))
    if (root.tau > lower) heap.enqueue(Node(root.tau, Array.empty, 0))

    def gapClosed(u: Double): Boolean = u - lower <= cfg.gapTol * math.max(lower, 1e-12)

    var stop = false
    while (!stop && heap.nonEmpty && calls < cfg.maxBoundCalls) {
      val node = heap.dequeue()
      upper = node.u
      if (gapClosed(node.u)) stop = true
      else if (node.nextIdx < order.length && node.included.length < cfg.k) {
        val cand = order(node.nextIdx)
        val next = node.nextIdx + 1

        val withCand = node.included :+ cand
        val resA = bound(withCand, next)
        if (resA.sigma > lower) { lower = resA.sigma; best = resA.complete }
        if (resA.tau > lower && withCand.length < cfg.k && next < order.length)
          heap.enqueue(Node(resA.tau, withCand, next))

        if (calls < cfg.maxBoundCalls) {
          val resB = bound(node.included, next)
          if (resB.sigma > lower) { lower = resB.sigma; best = resB.complete }
          if (resB.tau > lower && next < order.length)
            heap.enqueue(Node(resB.tau, node.included, next))
        }
      }
    }
    if (heap.isEmpty && !stop) upper = lower

    val gap = math.max(0.0, (upper - lower) / math.max(lower, 1e-12))
    BabResult(
      candidates = best,
      plan = idx.toPlan(best),
      sigma = lower,
      upperBound = upper,
      gap = gap,
      boundCalls = calls,
      tauEvals = bounder.tauEvals - evals0)
  }
}
