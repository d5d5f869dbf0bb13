package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.SyntheticIndex

class ProgressiveBounderSpec extends AnyFunSuite {

  private val params = LogisticParams(3.0, 1.0)

  private def bounders(idx: CoverageIndex, eps: Double): (GreedyBounder, ProgressiveBounder) = {
    val env = new EnvelopeTable(params, idx.ell)
    val order = BranchAndBound.defaultOrder(idx)
    (new GreedyBounder(idx, env, order, params),
      new ProgressiveBounder(idx, env, order, params, eps))
  }

  test("progressive tau achieves (1 - 1/e - eps) of the brute-force tau optimum") {
    // Theorem 3's guarantee is on absolute tau: the filled-budget case gives
    // (1 - e^{-1/(1+eps)}) ≥ 1 - 1/e - eps, the early-stop case (1 - 1/e).
    for (seed <- 1 to 15; eps <- Seq(0.1, 0.5)) {
      val idx = SyntheticIndex.random(theta = 25, ell = 2, nPromoters = 4,
        nVertices = 50, density = 0.35, seed = 400L + seed)
      val env = new EnvelopeTable(params, idx.ell)
      val (_, pro) = bounders(idx, eps)
      val res = pro.computeBound(Array.empty, 0, 3)
      val (_, bestTau) = BruteForce.bestByTau(idx, env, 3)
      val ratio = 1.0 - math.exp(-1.0) - eps
      assert(res.tau >= ratio * bestTau - 1e-9,
        s"seed=$seed eps=$eps: got=${res.tau} need=${ratio * bestTau}")
    }
  }

  test("tiny epsilon approaches the greedy tau") {
    for (seed <- 1 to 10) {
      val idx = SyntheticIndex.random(theta = 40, ell = 2, nPromoters = 6,
        nVertices = 80, density = 0.3, seed = 500L + seed)
      val (greedy, pro) = bounders(idx, eps = 0.01)
      val g = greedy.computeBound(Array.empty, 0, 4)
      val p = pro.computeBound(Array.empty, 0, 4)
      // Theoretical floor: p.tau ≥ (1−1/e−ε)·τ* ≥ (1−1/e−ε)·g.tau; in
      // practice the progressive selection lands much closer to greedy.
      assert(p.tau >= (1.0 - math.exp(-1.0) - 0.01) * g.tau - 1e-9,
        s"seed=$seed: pro=${p.tau} greedy=${g.tau}")
    }
  }

  test("progressive sigma never exceeds progressive tau") {
    for (seed <- 1 to 10) {
      val idx = SyntheticIndex.random(theta = 30, ell = 3, nPromoters = 5,
        nVertices = 60, density = 0.3, seed = 600L + seed)
      val (_, pro) = bounders(idx, eps = 0.5)
      val res = pro.computeBound(Array.empty, 0, 5)
      assert(res.sigma <= res.tau + 1e-9)
    }
  }

  test("budget and base-plan contracts hold") {
    val idx = SyntheticIndex.random(theta = 40, ell = 2, nPromoters = 6,
      nVertices = 80, density = 0.3, seed = 20L)
    val (_, pro) = bounders(idx, eps = 0.5)
    val base = Array(2, 5)
    val res = pro.computeBound(base, 2, 5)
    assert(res.complete.length <= 5)
    assert(base.forall(res.complete.contains))
  }

  test("free candidates before freeFrom are never selected") {
    val idx = SyntheticIndex.random(theta = 40, ell = 2, nPromoters = 6,
      nVertices = 80, density = 0.3, seed = 21L)
    val (_, pro) = bounders(idx, eps = 0.3)
    val freeFrom = 7
    val res = pro.computeBound(Array.empty, freeFrom, 4)
    val allowed = pro.order.drop(freeFrom).toSet
    assert(res.complete.forall(allowed.contains))
  }

  test("progressive may stop early but never selects zero-gain candidates") {
    val idx = SyntheticIndex.random(theta = 30, ell = 2, nPromoters = 5,
      nVertices = 60, density = 0.2, seed = 22L)
    val (_, pro) = bounders(idx, eps = 0.9)
    val res = pro.computeBound(Array.empty, 0, 8)
    // Every selected candidate must have contributed: sigma strictly grows
    // with each inclusion on this instance, so sigma > 0 iff any selected.
    if (res.complete.nonEmpty) assert(res.sigma > 0)
  }

  test("progressive uses no more tau evaluations than plain greedy would") {
    // Plain greedy costs k' scans of all free candidates; the progressive
    // scheme's early break must not exceed that on a power-law-ish instance.
    val theta = 200
    val nPromoters = 40
    // Heavy-tailed coverage: promoter p covers ~theta/(p+1) samples.
    val promoters = Array.tabulate(nPromoters)(_.toLong)
    val cov = Array.tabulate(nPromoters * 2) { c =>
      val p = c / 2
      (0 until theta).filter(s => s % (p + 1) == 0).toArray
    }
    val idx = new CoverageIndex(theta, 2, 1000, promoters, cov)
    val env = new EnvelopeTable(params, 2)
    val order = BranchAndBound.defaultOrder(idx)
    val greedy = new GreedyBounder(idx, env, order, params)
    val pro = new ProgressiveBounder(idx, env, order, params, 0.5)
    greedy.computeBound(Array.empty, 0, 10)
    pro.computeBound(Array.empty, 0, 10)
    assert(pro.tauEvals <= greedy.tauEvals,
      s"progressive=${pro.tauEvals} plain=${greedy.tauEvals}")
  }

  test("epsilon must be positive") {
    val idx = SyntheticIndex.random(theta = 10, ell = 2, nPromoters = 3,
      nVertices = 20, density = 0.3, seed = 23L)
    val env = new EnvelopeTable(params, 2)
    intercept[IllegalArgumentException](
      new ProgressiveBounder(idx, env, BranchAndBound.defaultOrder(idx), params, 0.0))
  }

  test("deterministic across repeated invocations") {
    val idx = SyntheticIndex.random(theta = 40, ell = 2, nPromoters = 6,
      nVertices = 80, density = 0.3, seed = 24L)
    val (_, pro) = bounders(idx, eps = 0.5)
    val a = pro.computeBound(Array.empty, 0, 4)
    val b = pro.computeBound(Array.empty, 0, 4)
    assert(a.complete.toSeq == b.complete.toSeq)
    assert(a.tau == b.tau && a.sigma == b.sigma)
  }

  test("empty-coverage promoters leave computeBound unchanged") {
    val idx = SyntheticIndex.random(theta = 60, ell = 3, nPromoters = 8,
      nVertices = 120, density = 0.1, seed = 25L)
    val nExtra = 1000
    val extra = (0 until nExtra).map(i => 1000L + i)
    val padded = new CoverageIndex(idx.theta, idx.ell, idx.nVertices, idx.promoters ++ extra,
      Array.tabulate(idx.candidateCount + nExtra * idx.ell) { c =>
        if (c < idx.candidateCount) idx.coverage(c) else Array.emptyIntArray
      })
    val (_, pro) = bounders(idx, eps = 0.3)
    val (_, proPadded) = bounders(padded, eps = 0.3)
    for ((base, freeFrom, k) <- Seq((Array.empty[Int], 0, 4), (Array(pro.order(0)), 1, 5), (Array.empty[Int], 3, 2))) {
      val a = pro.computeBound(base, freeFrom, k)
      val b = proPadded.computeBound(base, freeFrom, k)
      assert(a.sigma == b.sigma && a.tau == b.tau, s"freeFrom=$freeFrom k=$k")
      assert(idx.toPlan(a.complete) == padded.toPlan(b.complete), s"freeFrom=$freeFrom k=$k")
    }
  }
}
