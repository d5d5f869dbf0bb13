package repro.core

import scala.collection.mutable

/** The two baselines of §VI-A, adapted from state-of-the-art RIS-based IM.
  *
  * Both pick ONE seed set of size k via greedy maximum coverage over RR sets
  * (the Borgs et al. / TIM / IMM selection step) and spread a single best
  * viral piece with it:
  *
  *  - **IM** ignores topics: seeds maximize spread on the topic-agnostic
  *    graph (uniform topic mixture); the piece whose AU under those seeds is
  *    largest is then chosen.
  *  - **TIM** is topic-aware per piece: for each piece it finds the seed set
  *    maximizing that piece's spread, then keeps the single (Sᵢ, tᵢ) of
  *    largest AU.
  */
object Baselines {

  /** One baseline outcome: the chosen single-piece plan and its AU. */
  final case class BaselineResult(plan: Plan, sigma: Double, piece: Int)

  /** Greedy maximum coverage (CELF) over RR-sample lists: pick ≤ k entries
    * maximizing the number of distinct covered samples. Ties break toward the
    * lower list index.
    */
  def greedyMaxCover(lists: IndexedSeq[Array[Int]], theta: Int, k: Int): Array[Int] = {
    require(k > 0, s"budget must be positive, got $k")
    val covered = new Array[Boolean](theta)
    val selected = mutable.ArrayBuffer.empty[Int]

    def gainOf(i: Int): Int = {
      var g = 0
      val s = lists(i)
      var j = 0
      while (j < s.length) { if (!covered(s(j))) g += 1; j += 1 }
      g
    }

    implicit val ord: Ordering[(Int, Int, Int)] =
      Ordering.by[(Int, Int, Int), (Int, Int)](e => (e._1, -e._2))
    val pq = mutable.PriorityQueue.empty[(Int, Int, Int)]
    lists.indices.foreach(i => pq.enqueue((lists(i).length, i, 0)))

    var round = 0
    while (selected.length < k && pq.nonEmpty) {
      val (g, i, r) = pq.dequeue()
      if (r == round) {
        if (g > 0) {
          selected += i
          lists(i).foreach(s => covered(s) = true)
          round += 1
        } else pq.clear()
      } else pq.enqueue((gainOf(i), i, round))
    }
    selected.toArray
  }

  /** TIM: per-piece topic-aware seed selection over the campaign's own MRR
    * index, then the best single (seed set, piece) assignment by AU.
    */
  def runTIM(idx: CoverageIndex, params: LogisticParams, k: Int): BaselineResult =
    bestPiece(idx, params) { j =>
      greedyMaxCover(idx.promoters.indices.map(p => idx.coverage(p * idx.ell + j)), idx.theta, k)
    }

  /** IM: topic-agnostic seed selection over a separate single-"piece" RR
    * index built on the uniform topic mixture, then the best piece for those
    * seeds by AU on the campaign index.
    *
    * @param mixtureIdx RR index sampled with the uniform-mixture piece (ell=1)
    * @param idx        the campaign's MRR index used for AU evaluation
    */
  def runIM(
      mixtureIdx: CoverageIndex,
      idx: CoverageIndex,
      params: LogisticParams,
      k: Int): BaselineResult = {
    require(mixtureIdx.ell == 1, s"mixture index must have one piece, got ${mixtureIdx.ell}")
    require(java.util.Arrays.equals(mixtureIdx.promoters, idx.promoters),
      "mixture and campaign indices must share the promoter pool")
    val seeds = greedyMaxCover(mixtureIdx.promoters.indices.map(mixtureIdx.coverage), mixtureIdx.theta, k)
    bestPiece(idx, params)(_ => seeds)
  }

  /** The best single-piece plan: piece `j` goes to the promoters at pool
    * positions `seedsFor(j)`, scored as the candidates `position·ℓ + j`. The
    * first strictly larger σ wins, and only the winner becomes a [[Plan]].
    */
  private def bestPiece(idx: CoverageIndex, params: LogisticParams)(seedsFor: Int => Array[Int]): BaselineResult = {
    val scored = (0 until idx.ell).map { j =>
      val candidates = seedsFor(j).map(_ * idx.ell + j)
      (j, candidates, idx.au(candidates, params))
    }
    val (piece, candidates, sigma) = scored.reduceLeft((a, b) => if (a._3 < b._3) b else a)
    BaselineResult(idx.toPlan(candidates), sigma, piece)
  }
}
