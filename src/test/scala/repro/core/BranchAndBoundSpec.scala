package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments
import repro.testkit.SyntheticIndex
import repro.util.HashRng

class BranchAndBoundSpec extends AnyFunSuite {

  private val params = LogisticParams(3.0, 1.0)
  private val guarantee = 1.0 - math.exp(-1.0)

  test("defaultOrder sorts by coverage size descending, index ascending") {
    val idx = SyntheticIndex.random(theta = 50, ell = 2, nPromoters = 6,
      nVertices = 100, density = 0.3, seed = 30L)
    val order = BranchAndBound.defaultOrder(idx)
    assert(order.toSet == (0 until idx.candidateCount).toSet)
    order.sliding(2).foreach { case Array(a, b) =>
      val (ca, cb) = (idx.coverage(a).length, idx.coverage(b).length)
      assert(ca > cb || (ca == cb && a < b))
    }
  }

  test("defaultOrder equals the tuple-sort reference on a campaign index") {
    // Most candidates empty, the rest short lists with many ties in length.
    val (theta, ell, nPromoters) = (500, 3, 2000)
    val cov = Array.tabulate(nPromoters * ell) { c =>
      val len = if (HashRng.uniform(31L, c.toLong) < 0.9) 0 else 1 + (c % 4)
      Array.range(0, len).map(i => (c + 97 * i) % theta).distinct.sorted
    }
    val idx = new CoverageIndex(theta, ell, 10000, Array.tabulate(nPromoters)(_.toLong), cov)
    val reference = (0 until idx.candidateCount).sortBy(c => (-idx.coverage(c).length, c))
    assert(BranchAndBound.defaultOrder(idx).toSeq == reference)
  }

  test("BAB meets the (1 - 1/e) guarantee against brute force on random instances") {
    for (seed <- 1 to 12) {
      val idx = SyntheticIndex.random(theta = 20, ell = 2, nPromoters = 4,
        nVertices = 40, density = 0.35, seed = 700L + seed)
      val res = Experiments.search("BAB", idx, params, BabConfig(k = 3, gapTol = 0.0))
      val (_, opt) = BruteForce.bestByAu(idx, params, 3)
      assert(res.sigma >= guarantee * opt - 1e-9,
        s"seed=$seed: bab=${res.sigma} opt=$opt")
    }
  }

  test("BAB-P meets the (1 - 1/e - eps) guarantee against brute force") {
    for (seed <- 1 to 12; eps <- Seq(0.2, 0.5)) {
      val idx = SyntheticIndex.random(theta = 20, ell = 2, nPromoters = 4,
        nVertices = 40, density = 0.35, seed = 800L + seed)
      val res = Experiments.search("BAB-P", idx, params, BabConfig(k = 3, gapTol = 0.0), eps)
      val (_, opt) = BruteForce.bestByAu(idx, params, 3)
      assert(res.sigma >= (guarantee - eps) * opt - 1e-9,
        s"seed=$seed eps=$eps: bab-p=${res.sigma} opt=$opt")
    }
  }

  test("BAB with zero gap typically finds the brute-force optimum on easy instances") {
    var hits = 0
    val trials = 10
    for (seed <- 1 to trials) {
      val idx = SyntheticIndex.random(theta = 25, ell = 2, nPromoters = 4,
        nVertices = 50, density = 0.4, seed = 900L + seed)
      val res = Experiments.search("BAB", idx, params, BabConfig(k = 2, gapTol = 0.0))
      val (_, opt) = BruteForce.bestByAu(idx, params, 2)
      if (math.abs(res.sigma - opt) < 1e-9) hits += 1
    }
    assert(hits >= trials / 2, s"exact hits: $hits/$trials")
  }

  test("BAB is at least as good as its root greedy solution") {
    for (seed <- 1 to 8) {
      val idx = SyntheticIndex.random(theta = 40, ell = 2, nPromoters = 6,
        nVertices = 80, density = 0.3, seed = 1000L + seed)
      val env = new EnvelopeTable(params, idx.ell)
      val order = BranchAndBound.defaultOrder(idx)
      val rootGreedy = new GreedyBounder(idx, env, order, params)
        .computeBound(Array.empty, 0, 4)
      val res = Experiments.search("BAB", idx, params, BabConfig(k = 4, gapTol = 0.0))
      assert(res.sigma >= rootGreedy.sigma - 1e-12)
    }
  }

  test("result invariants: budget, bound, gap, counters") {
    val idx = SyntheticIndex.random(theta = 40, ell = 3, nPromoters = 6,
      nVertices = 80, density = 0.3, seed = 31L)
    val res = Experiments.search("BAB", idx, params, BabConfig(k = 5, gapTol = 0.01))
    assert(res.candidates.length <= 5)
    assert(res.plan.size == res.candidates.length)
    assert(res.sigma <= res.upperBound + 1e-9)
    assert(res.gap >= 0)
    assert(res.boundCalls >= 1)
    assert(res.tauEvals > 0)
    assert(math.abs(idx.au(res.candidates.toSeq, params) - res.sigma) < 1e-9)
  }

  test("maxBoundCalls caps the search and still returns a valid plan") {
    val idx = SyntheticIndex.random(theta = 60, ell = 3, nPromoters = 10,
      nVertices = 120, density = 0.25, seed = 32L)
    val res = Experiments.search("BAB", idx, params, BabConfig(k = 6, gapTol = 0.0, maxBoundCalls = 5))
    assert(res.boundCalls <= 5)
    assert(res.candidates.length <= 6)
    assert(res.sigma > 0)
  }

  test("a loose gap tolerance terminates no later than a tight one") {
    val idx = SyntheticIndex.random(theta = 60, ell = 2, nPromoters = 8,
      nVertices = 120, density = 0.3, seed = 33L)
    val loose = Experiments.search("BAB", idx, params, BabConfig(k = 4, gapTol = 0.2))
    val tight = Experiments.search("BAB", idx, params, BabConfig(k = 4, gapTol = 0.0))
    assert(loose.boundCalls <= tight.boundCalls)
    assert(tight.sigma >= loose.sigma - 1e-9)
  }

  test("run rejects a bounder built over another index") {
    val idx = SyntheticIndex.random(theta = 40, ell = 2, nPromoters = 6,
      nVertices = 80, density = 0.3, seed = 37L)
    // Without the guard the other index's candidates are read back through
    // idx.toPlan: a larger pool can index past idx's candidates, and any pool
    // can map them to the wrong vertices without an error.
    for (nPromoters <- Seq(7, 6)) {
      val other = SyntheticIndex.random(theta = 40, ell = 2, nPromoters = nPromoters,
        nVertices = 80, density = 0.3, seed = 38L)
      val e = intercept[IllegalArgumentException](
        BranchAndBound.run(idx, params, Experiments.bounder("BAB", other, params, 0.5), BabConfig(k = 3)))
      assert(e.getMessage.contains(s"${2 * nPromoters} candidates"), e.getMessage)
    }
    val view = idx.takePieces(1)
    intercept[IllegalArgumentException](
      BranchAndBound.run(idx, params, Experiments.bounder("BAB-P", view, params, 0.5), BabConfig(k = 3)))
  }

  test("BAB is deterministic") {
    val idx = SyntheticIndex.random(theta = 40, ell = 2, nPromoters = 6,
      nVertices = 80, density = 0.3, seed = 34L)
    val a = Experiments.search("BAB", idx, params, BabConfig(k = 4))
    val b = Experiments.search("BAB", idx, params, BabConfig(k = 4))
    assert(a.candidates.toSeq == b.candidates.toSeq)
    assert(a.sigma == b.sigma)
  }

  test("single-piece campaigns reduce to IM-style seed selection") {
    val idx = SyntheticIndex.random(theta = 40, ell = 1, nPromoters = 6,
      nVertices = 80, density = 0.3, seed = 35L)
    val res = Experiments.search("BAB", idx, params, BabConfig(k = 3, gapTol = 0.0))
    val (_, opt) = BruteForce.bestByAu(idx, params, 3)
    assert(res.sigma >= guarantee * opt - 1e-9)
    assert(res.plan.ell == 1)
  }

  test("budget larger than the candidate space selects everything useful") {
    val idx = SyntheticIndex.random(theta = 20, ell = 2, nPromoters = 2,
      nVertices = 40, density = 0.4, seed = 36L)
    val res = Experiments.search("BAB", idx, params, BabConfig(k = 50, gapTol = 0.0))
    val all = idx.au((0 until idx.candidateCount).toSeq, params)
    assert(math.abs(res.sigma - all) < 1e-9)
  }
}
