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
  * influence (RR coverage, descending: the index's `scanOrder`) so
  * high-influence promoters are branched first, per the paper's power-law
  * prioritization. A heap node fixes a decision prefix: `included` holds the
  * candidates taken among the first `nextIdx` positions; all positions
  * ≥ `nextIdx` are undecided.
  * Expanding a node branches on position `nextIdx` (include / exclude) and
  * scores both children with the supplied [[Bounder]]; a child is enqueued
  * only while its bound exceeds the best utility found (pruning).
  */
object BranchAndBound {

  /** The index's own scan order, [[CoverageIndex.scanOrder]]: one array per index. */
  def defaultOrder(idx: CoverageIndex): Array[Int] = idx.scanOrder

  /** Algorithm 1 over `idx`, branching in `idx.scanOrder`. The bounder must be
    * built over `idx` itself: its candidates are read back as vertices through
    * `idx.toPlan`. `params` is not read; the benchmark calls this form. Both
    * children of an expansion take one step, `child`: bound, raise the
    * incumbent, and enqueue while τ beats the incumbent and it can branch.
    */
  def run(idx: CoverageIndex, @scala.annotation.unused params: LogisticParams, bounder: Bounder, cfg: BabConfig): BabResult = {
    require(bounder.idx eq idx,
      s"the bounder's index (θ=${bounder.idx.theta}, ℓ=${bounder.idx.ell}, ${bounder.idx.candidateCount} candidates) " +
        s"is not the search's (θ=${idx.theta}, ℓ=${idx.ell}, ${idx.candidateCount} candidates)")
    val order = idx.scanOrder
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

    def child(included: Array[Int], next: Int): Unit = {
      val res = bound(included, next)
      if (res.sigma > lower) { lower = res.sigma; best = res.complete }
      if (res.tau > lower && included.length < cfg.k && next < order.length)
        heap.enqueue(Node(res.tau, included, next))
    }

    var stop = false
    while (!stop && heap.nonEmpty && calls < cfg.maxBoundCalls) {
      val node = heap.dequeue()
      upper = node.u
      if (gapClosed(node.u)) stop = true
      else if (node.nextIdx < order.length && node.included.length < cfg.k) {
        val next = node.nextIdx + 1
        child(node.included :+ order(node.nextIdx), next)
        if (calls < cfg.maxBoundCalls) child(node.included, next)
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
