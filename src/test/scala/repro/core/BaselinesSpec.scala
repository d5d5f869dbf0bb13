package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments
import repro.testkit.SyntheticIndex

class BaselinesSpec extends AnyFunSuite {

  private val params = LogisticParams(3.0, 1.0)

  /** Reference max-cover greedy: plain rescan, ties to the lower index. */
  private def plainMaxCover(lists: IndexedSeq[Array[Int]], theta: Int, k: Int): Seq[Int] = {
    val covered = new Array[Boolean](theta)
    var picked = List.empty[Int]
    var continue = true
    while (picked.length < k && continue) {
      var bestI = -1
      var bestG = 0
      for (i <- lists.indices if !picked.contains(i)) {
        val g = lists(i).count(!covered(_))
        if (g > bestG) { bestG = g; bestI = i }
      }
      if (bestI < 0) continue = false
      else { lists(bestI).foreach(covered(_) = true); picked = picked :+ bestI }
    }
    picked
  }

  test("greedyMaxCover matches the plain reference on random instances") {
    for (seed <- 1 to 15) {
      val idx = SyntheticIndex.random(theta = 50, ell = 1, nPromoters = 8,
        nVertices = 100, density = 0.2, seed = 1100L + seed)
      val lists = (0 until 8).map(idx.coverage)
      val celf = Baselines.greedyMaxCover(lists, 50, 4).toSeq
      val plain = plainMaxCover(lists, 50, 4)
      assert(celf == plain, s"seed=$seed")
    }
  }

  test("greedyMaxCover picks the obvious optimum on a hand instance") {
    val lists = IndexedSeq(
      Array(0, 1, 2, 3), // dominant
      Array(0, 1),       // fully redundant given the first
      Array(4, 5),       // disjoint
      Array(5),          // redundant given the third
    )
    assert(Baselines.greedyMaxCover(lists, 6, 2).toSeq == Seq(0, 2))
  }

  test("greedyMaxCover stops when nothing new can be covered") {
    val lists = IndexedSeq(Array(0, 1), Array(0), Array(1))
    val picked = Baselines.greedyMaxCover(lists, 2, 3)
    assert(picked.toSeq == Seq(0)) // others add no coverage
  }

  test("greedyMaxCover respects the budget") {
    val lists = IndexedSeq(Array(0), Array(1), Array(2), Array(3))
    assert(Baselines.greedyMaxCover(lists, 4, 2).length == 2)
  }

  test("TIM returns a single-piece plan within budget") {
    val idx = SyntheticIndex.random(theta = 60, ell = 3, nPromoters = 8,
      nVertices = 120, density = 0.25, seed = 40L)
    val r = Baselines.runTIM(idx, params, k = 4)
    assert(r.plan.size <= 4)
    assert(r.plan.seedSets.count(_.nonEmpty) == 1)
    assert(r.plan.seedSets(r.piece).nonEmpty)
    assert(math.abs(idx.auOfPlan(r.plan, params) - r.sigma) < 1e-12)
  }

  test("TIM picks the piece with the best achievable single-piece AU") {
    val idx = SyntheticIndex.random(theta = 60, ell = 3, nPromoters = 8,
      nVertices = 120, density = 0.25, seed = 41L)
    val r = Baselines.runTIM(idx, params, k = 4)
    // Recompute each piece's greedy AU; the returned one must be the max.
    val perPiece = (0 until 3).map { j =>
      val lists = idx.promoters.indices.map(p => idx.coverage(p * 3 + j))
      val seeds = Baselines.greedyMaxCover(lists, idx.theta, 4).map(idx.promoters(_))
      idx.auOfPlan(PlanOps.singlePiece(3, j, seeds.toSet), params)
    }
    assert(math.abs(r.sigma - perPiece.max) < 1e-12)
  }

  test("IM uses mixture seeds and evaluates every piece") {
    val campaign = SyntheticIndex.random(theta = 60, ell = 2, nPromoters = 6,
      nVertices = 120, density = 0.25, seed = 42L)
    val mixture = SyntheticIndex.random(theta = 60, ell = 1, nPromoters = 6,
      nVertices = 120, density = 0.25, seed = 43L)
    val r = Baselines.runIM(mixture, campaign, params, k = 3)
    assert(r.plan.seedSets.count(_.nonEmpty) == 1)
    assert(r.plan.size <= 3)
    // The chosen piece is at least as good as the alternative with the same seeds.
    val seeds = r.plan.seedSets(r.piece)
    val other = 1 - r.piece
    assert(r.sigma >= campaign.auOfPlan(PlanOps.singlePiece(2, other, seeds), params) - 1e-12)
  }

  /** The plan-level route: each piece's seeds as a single-piece [[Plan]],
    * scored by `auOfPlan`; the first strictly larger σ wins.
    */
  private def planRoute(idx: CoverageIndex, seedsFor: Int => Array[Int]): Baselines.BaselineResult = {
    var best: Option[Baselines.BaselineResult] = None
    for (j <- 0 until idx.ell) {
      val plan = PlanOps.singlePiece(idx.ell, j, seedsFor(j).map(idx.promoters(_)).toSet)
      val sigma = idx.auOfPlan(plan, params)
      if (best.forall(_.sigma < sigma)) best = Some(Baselines.BaselineResult(plan, sigma, j))
    }
    best.get
  }

  private def assertSameResult(got: Baselines.BaselineResult, want: Baselines.BaselineResult, at: String): Unit = {
    assert(got.plan == want.plan, at)
    assert(got.piece == want.piece, at)
    assert(java.lang.Double.doubleToLongBits(got.sigma) == java.lang.Double.doubleToLongBits(want.sigma), at)
  }

  test("TIM and IM equal the plan-level route bit for bit") {
    // Six promoters, so k = 8 exceeds the pool.
    for (ell <- Seq(1, 2, 5); k <- Seq(1, 3, 8); seed <- 1 to 4) {
      val idx = SyntheticIndex.random(theta = 40, ell = ell, nPromoters = 6,
        nVertices = 80, density = 0.2, seed = 1400L + 10 * ell + seed)
      val mixture = SyntheticIndex.random(theta = 40, ell = 1, nPromoters = 6,
        nVertices = 80, density = 0.2, seed = 1500L + 10 * ell + seed)
      val timSeeds = (j: Int) =>
        Baselines.greedyMaxCover(idx.promoters.indices.map(p => idx.coverage(p * ell + j)), idx.theta, k)
      val imSeeds = Baselines.greedyMaxCover(mixture.promoters.indices.map(mixture.coverage), mixture.theta, k)
      assertSameResult(Baselines.runTIM(idx, params, k), planRoute(idx, timSeeds), s"TIM ell=$ell k=$k seed=$seed")
      assertSameResult(Baselines.runIM(mixture, idx, params, k), planRoute(idx, _ => imSeeds),
        s"IM ell=$ell k=$k seed=$seed")
    }
    // Every piece ties: both keep the first.
    val promoters = Array(1L, 2L)
    val lists = for (v <- promoters.toSeq; j <- 0 until 3) yield (v, j) -> Seq(v.toInt, 3)
    val tied = SyntheticIndex.explicit(theta = 4, ell = 3, nVertices = 8, promoters, lists.toMap)
    val mixture = SyntheticIndex.explicit(theta = 4, ell = 1, nVertices = 8, promoters, Map((1L, 0) -> Seq(1)))
    assertSameResult(Baselines.runTIM(tied, params, 1), planRoute(tied, _ => Array(0)), "TIM tie")
    assertSameResult(Baselines.runIM(mixture, tied, params, 1), planRoute(tied, _ => Array(0)), "IM tie")
  }

  test("IM rejects a multi-piece mixture index") {
    val campaign = SyntheticIndex.random(theta = 20, ell = 2, nPromoters = 4,
      nVertices = 40, density = 0.3, seed = 44L)
    intercept[IllegalArgumentException](Baselines.runIM(campaign, campaign, params, 2))
  }

  test("IM rejects mismatched promoter pools") {
    val campaign = SyntheticIndex.random(theta = 20, ell = 2, nPromoters = 4,
      nVertices = 40, density = 0.3, seed = 45L)
    val mixture = SyntheticIndex.random(theta = 20, ell = 1, nPromoters = 5,
      nVertices = 40, density = 0.3, seed = 46L)
    intercept[IllegalArgumentException](Baselines.runIM(mixture, campaign, params, 2))
  }

  test("BAB dominates both baselines on multi-piece instances") {
    for (seed <- 1 to 6) {
      val campaign = SyntheticIndex.random(theta = 50, ell = 3, nPromoters = 6,
        nVertices = 100, density = 0.3, seed = 1200L + seed)
      val mixture = SyntheticIndex.random(theta = 50, ell = 1, nPromoters = 6,
        nVertices = 100, density = 0.3, seed = 1300L + seed)
      val im = Baselines.runIM(mixture, campaign, params, k = 4)
      val tim = Baselines.runTIM(campaign, params, k = 4)
      val bab = Experiments.search("BAB", campaign, params, BabConfig(k = 4, gapTol = 0.0))
      assert(bab.sigma >= tim.sigma - 1e-9, s"seed=$seed")
      assert(bab.sigma >= im.sigma - 1e-9, s"seed=$seed")
    }
  }
}
