package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.SyntheticIndex

class GreedyBounderSpec extends AnyFunSuite {

  private val params = LogisticParams(3.0, 1.0)

  private def bounderFor(idx: CoverageIndex): GreedyBounder = {
    val env = new EnvelopeTable(params, idx.ell)
    new GreedyBounder(idx, env, BranchAndBound.defaultOrder(idx), params)
  }

  test("greedy tau achieves at least (1 - 1/e) of the brute-force tau optimum") {
    val ratio = 1.0 - math.exp(-1.0)
    for (seed <- 1 to 15) {
      val idx = SyntheticIndex.random(theta = 25, ell = 2, nPromoters = 4,
        nVertices = 50, density = 0.35, seed = 200L + seed)
      val env = new EnvelopeTable(params, idx.ell)
      val b = new GreedyBounder(idx, env, BranchAndBound.defaultOrder(idx), params)
      val greedy = b.computeBound(Array.empty, 0, 3)
      val (_, bestTau) = BruteForce.bestByTau(idx, env, 3)
      // The guarantee applies to the gain over the empty plan's tau.
      val baseTau = idx.scale * (0 until idx.theta).map(_ => env.base(0)).sum
      assert(greedy.tau - baseTau >= ratio * (bestTau - baseTau) - 1e-9, s"seed=$seed")
    }
  }

  test("sigma never exceeds tau (the envelope majorizes adoption)") {
    for (seed <- 1 to 10) {
      val idx = SyntheticIndex.random(theta = 30, ell = 3, nPromoters = 5,
        nVertices = 80, density = 0.3, seed = 300L + seed)
      val res = bounderFor(idx).computeBound(Array.empty, 0, 5)
      assert(res.sigma <= res.tau + 1e-9, s"seed=$seed: sigma=${res.sigma} tau=${res.tau}")
    }
  }

  test("the base plan is contained in the completed plan") {
    val idx = SyntheticIndex.random(theta = 30, ell = 2, nPromoters = 6,
      nVertices = 80, density = 0.3, seed = 7L)
    val base = Array(1, 4)
    val res = bounderFor(idx).computeBound(base, 1, 5)
    assert(base.forall(res.complete.contains))
    assert(res.complete.length <= 5)
  }

  test("selection respects the budget exactly when gains remain") {
    val idx = SyntheticIndex.random(theta = 60, ell = 2, nPromoters = 8,
      nVertices = 100, density = 0.4, seed = 8L)
    val res = bounderFor(idx).computeBound(Array.empty, 0, 4)
    assert(res.complete.length == 4)
  }

  test("free candidates below freeFrom are never selected") {
    val idx = SyntheticIndex.random(theta = 40, ell = 2, nPromoters = 6,
      nVertices = 80, density = 0.3, seed = 9L)
    val b = bounderFor(idx)
    val freeFrom = 6
    val res = b.computeBound(Array.empty, freeFrom, 4)
    val allowed = b.order.drop(freeFrom).toSet
    assert(res.complete.forall(allowed.contains))
  }

  test("an exhausted candidate space returns just the base") {
    val idx = SyntheticIndex.random(theta = 20, ell = 2, nPromoters = 3,
      nVertices = 40, density = 0.3, seed = 10L)
    val b = bounderFor(idx)
    val res = b.computeBound(Array(0, 1), idx.candidateCount, 5)
    assert(res.complete.toSeq == Seq(0, 1))
  }

  test("zero remaining budget returns the base with its own sigma") {
    val idx = SyntheticIndex.random(theta = 20, ell = 2, nPromoters = 3,
      nVertices = 40, density = 0.3, seed = 11L)
    val b = bounderFor(idx)
    val base = Array(0, 2, 4)
    val res = b.computeBound(base, 3, 3)
    assert(res.complete.toSeq == base.toSeq.sorted)
    assert(math.abs(res.sigma - idx.au(base.toSeq, params)) < 1e-12)
  }

  test("tau evaluation counter advances") {
    val idx = SyntheticIndex.random(theta = 20, ell = 2, nPromoters = 4,
      nVertices = 40, density = 0.3, seed = 12L)
    val b = bounderFor(idx)
    val before = b.tauEvals
    b.computeBound(Array.empty, 0, 3)
    assert(b.tauEvals > before)
  }

  test("anchored refinement tightens tau pointwise (Figure 2)") {
    // For the SAME final plan, evaluating tau with refined anchors (base
    // coverage known) is never looser than with zero anchors.
    val idx = SyntheticIndex.random(theta = 40, ell = 2, nPromoters = 6,
      nVertices = 80, density = 0.35, seed = 13L)
    val env = new EnvelopeTable(params, idx.ell)
    val base = Seq(0, 3)
    val full = base ++ Seq(5, 8)
    val anchorCounts = idx.coverageCounts(base)
    val fullCounts = idx.coverageCounts(full)
    val tauRefined = (0 until idx.theta)
      .map(i => env.value(anchorCounts(i), fullCounts(i))).sum
    val tauRoot = (0 until idx.theta).map(i => env.value(0, fullCounts(i))).sum
    assert(tauRefined <= tauRoot + 1e-9)
    // ... and both still majorize the true adoption value.
    val trueVal = (0 until idx.theta).map(i => params.adoptionProb(fullCounts(i))).sum
    assert(tauRefined >= trueVal - 1e-9)
  }
}
