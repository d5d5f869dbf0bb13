package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.SyntheticIndex

class CoverageIndexSpec extends AnyFunSuite {

  // Hand instance: θ=4 samples, ℓ=2 pieces, promoters {10, 20}, n=8.
  private val idx = SyntheticIndex.explicit(
    theta = 4, ell = 2, nVertices = 8, promoters = Array(10L, 20L),
    lists = Map(
      (10L, 0) -> Seq(0, 1, 2),
      (10L, 1) -> Seq(0),
      (20L, 0) -> Seq(2, 3),
      (20L, 1) -> Seq(1, 3),
    ))
  private val params = LogisticParams(3.0, 1.0)

  test("candidate arithmetic round-trips") {
    assert(idx.candidateCount == 4)
    val c = idx.candidateOf(20L, 1)
    assert(idx.promoterOf(c) == 20L)
    assert(idx.pieceOf(c) == 1)
  }

  test("unknown promoters are rejected") {
    intercept[IllegalArgumentException](idx.candidateOf(99L, 0))
    intercept[IllegalArgumentException](idx.candidateOf(10L, 2))
  }

  test("scale is n over theta") {
    assert(idx.scale == 2.0)
  }

  test("coverageCounts counts distinct pieces per sample") {
    val counts = idx.coverageCounts(Seq(idx.candidateOf(10L, 0), idx.candidateOf(20L, 1)))
    // sample 0: piece0 (by 10); sample 1: piece0 + piece1; sample 2: piece0;
    // sample 3: piece1.
    assert(counts.toSeq == Seq(1, 2, 1, 1))
  }

  test("two promoters of one piece in the same RR set count once") {
    val counts = idx.coverageCounts(Seq(idx.candidateOf(10L, 0), idx.candidateOf(20L, 0)))
    assert(counts.toSeq == Seq(1, 1, 1, 1)) // sample 2 is covered by both, once
  }

  test("au matches a hand computation") {
    val au = idx.au(Seq(idx.candidateOf(10L, 0), idx.candidateOf(20L, 1)), params)
    val expected = 2.0 * (params.adoptionProb(1) * 3 + params.adoptionProb(2))
    assert(math.abs(au - expected) < 1e-12)
  }

  test("au of the empty plan is zero (Eqn 1 zero case)") {
    assert(idx.au(Seq.empty, params) == 0.0)
  }

  test("au equals the per-sample adoptionProb sum bit for bit") {
    val r = SyntheticIndex.random(theta = 500, ell = 4, nPromoters = 8, nVertices = 2000,
      density = 0.3, seed = 17L)
    for (p <- Seq(params, LogisticParams.fromRatio(0.3)); n <- Seq(0, 3, 12, r.candidateCount)) {
      val cands = (0 until r.candidateCount by 3).take(n)
      val counts = r.coverageCounts(cands)
      var s = 0.0
      for (i <- 0 until r.theta) s += p.adoptionProb(counts(i))
      assert(java.lang.Double.doubleToLongBits(r.au(cands, p)) ==
        java.lang.Double.doubleToLongBits(r.scale * s), s"$p n=$n")
    }
  }

  test("au is monotone under candidate inclusion") {
    val small = idx.au(Seq(idx.candidateOf(10L, 0)), params)
    val big = idx.au(Seq(idx.candidateOf(10L, 0), idx.candidateOf(20L, 1)), params)
    assert(big >= small)
  }

  test("auOfPlan agrees with au on candidates") {
    val plan = Plan.fromAssignments(2, Seq((10L, 0), (20L, 1)))
    assert(idx.auOfPlan(plan, params) ==
      idx.au(Seq(idx.candidateOf(10L, 0), idx.candidateOf(20L, 1)), params))
  }

  test("toPlan reconstructs the vertex-level plan") {
    val cands = Seq(idx.candidateOf(10L, 0), idx.candidateOf(20L, 1))
    assert(idx.toPlan(cands) == Plan.fromAssignments(2, Seq((10L, 0), (20L, 1))))
  }

  test("random synthetic index has sorted distinct coverage lists") {
    val r = SyntheticIndex.random(theta = 50, ell = 3, nPromoters = 5, nVertices = 100,
      density = 0.3, seed = 5L)
    (0 until r.candidateCount).foreach { c =>
      val l = r.coverage(c)
      assert(l.toSeq == l.toSeq.distinct.sorted)
      assert(l.forall(s => s >= 0 && s < 50))
    }
  }

  test("plan arity mismatches are rejected") {
    intercept[IllegalArgumentException](idx.auOfPlan(Plan.empty(3), params))
  }

  test("takePieces projects to a piece prefix exactly") {
    val one = idx.takePieces(1)
    assert(one.ell == 1)
    assert(one.theta == idx.theta && one.nVertices == idx.nVertices)
    assert(one.promoters.toSeq == idx.promoters.toSeq)
    assert(one.coverage(one.candidateOf(10L, 0)).toSeq ==
      idx.coverage(idx.candidateOf(10L, 0)).toSeq)
    assert(one.coverage(one.candidateOf(20L, 0)).toSeq ==
      idx.coverage(idx.candidateOf(20L, 0)).toSeq)
  }

  test("takePieces AU agrees with zeroing the dropped pieces") {
    val one = idx.takePieces(1)
    val auRestricted = one.auOfPlan(Plan(Vector(Set(10L, 20L))), params)
    val auZeroed = idx.auOfPlan(Plan(Vector(Set(10L, 20L), Set.empty)), params)
    assert(math.abs(auRestricted - auZeroed) < 1e-12)
  }

  test("takePieces validates the prefix length") {
    intercept[IllegalArgumentException](idx.takePieces(0))
    intercept[IllegalArgumentException](idx.takePieces(3))
  }

  test("theta × ell beyond Int.MaxValue cells is rejected") {
    intercept[IllegalArgumentException](new CoverageIndex(1 << 30, 2, 8, Array.empty, Array.empty))
    assert(new CoverageIndex(Int.MaxValue, 1, 8, Array.empty, Array.empty).candidateCount == 0)
    val noSamples = intercept[IllegalArgumentException](new CoverageIndex(0, 1, 8, Array.empty, Array.empty))
    assert(noSamples.getMessage.contains("theta must be at least 1, got 0"), noSamples.getMessage)
    val noPieces = intercept[IllegalArgumentException](new CoverageIndex(4, 0, 8, Array(10L), Array.empty))
    assert(noPieces.getMessage.contains("ell must be at least 1, got 0"), noPieces.getMessage)
  }

  test("an unsorted or duplicated promoter pool is rejected") {
    val lists = Array.fill(2)(Array.emptyIntArray)
    intercept[IllegalArgumentException](new CoverageIndex(4, 1, 8, Array(20L, 10L), lists))
    intercept[IllegalArgumentException](new CoverageIndex(4, 1, 8, Array(10L, 10L), lists))
  }
}
