package repro.core

import java.lang.Double.doubleToLongBits
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.{ReferenceBounders, SyntheticIndex}
import scala.util.Random

/** The served bounders against [[ReferenceBounders]]: identical completed
  * plans, σ and τ bit for bit, and identical τ-evaluation counts, call after
  * call on one reused bounder.
  */
class BounderReferenceSpec extends AnyFunSuite {

  private val paramsGrid =
    Seq(LogisticParams(3.0, 1.0), LogisticParams.fromRatio(0.3), LogisticParams.fromRatio(0.7))

  /** Random coverage plus `nEmpty` promoters that cover nothing. At density
    * 0.3 many pairs of promoters share a (sample, piece) cell.
    */
  private def shape(ell: Int, seed: Long, nEmpty: Int): CoverageIndex = {
    val r = SyntheticIndex.random(theta = 400, ell = ell, nPromoters = 10, nVertices = 1000,
      density = if (seed % 2 == 0) 0.3 else 0.05, seed = seed)
    new CoverageIndex(r.theta, ell, r.nVertices, r.promoters ++ Array.tabulate(nEmpty)(i => 100L + i),
      Array.tabulate(r.candidateCount + nEmpty * ell) { c =>
        if (c < r.candidateCount) r.coverage(c) else Array.emptyIntArray
      })
  }

  /** Two promoters whose piece-0 lists overlap, so both cover cells (1, 0) and
    * (2, 0); one promoter with no coverage at all.
    */
  private val sharedCells = SyntheticIndex.explicit(theta = 6, ell = 2, nVertices = 12,
    promoters = Array(10L, 20L, 30L),
    lists = Map(
      (10L, 0) -> Seq(0, 1, 2),
      (20L, 0) -> Seq(1, 2, 3),
      (10L, 1) -> Seq(2, 5),
      (20L, 1) -> Seq(4),
    ))

  private val shapes: Seq[(String, CoverageIndex)] =
    Seq(1, 2, 5).flatMap(ell => Seq(
      s"l=$ell dense" -> shape(ell, 10L + ell * 2, nEmpty = 3),
      s"l=$ell sparse" -> shape(ell, 11L + ell * 2, nEmpty = 0),
    )) :+ ("shared cells" -> sharedCells)

  private def assertSame(tag: String, got: BoundResult, want: BoundResult): Unit = {
    assert(got.complete.toSeq == want.complete.toSeq, s"$tag: plan")
    assert(doubleToLongBits(got.sigma) == doubleToLongBits(want.sigma),
      s"$tag: sigma ${got.sigma} vs ${want.sigma}")
    assert(doubleToLongBits(got.tau) == doubleToLongBits(want.tau), s"$tag: tau ${got.tau} vs ${want.tau}")
  }

  /** 24 calls with varied base, freeFrom and k: branch-and-bound style bases
    * from the order's prefix, bases reaching into the free range, a repeated
    * base candidate, k below |base| and the exhausted candidate space.
    */
  private def calls(order: Array[Int], seed: Long): Seq[(Array[Int], Int, Int)] = {
    val rnd = new Random(seed)
    val n = order.length
    val drawn = Seq.fill(20) {
      val freeFrom = rnd.nextInt(n + 1)
      val prefix = rnd.shuffle(order.take(freeFrom).toSeq).take(rnd.nextInt(4))
      val base = if (rnd.nextInt(3) == 0) (prefix ++ rnd.shuffle(order.toSeq).take(2)).distinct else prefix
      (base.toArray, freeFrom, base.length + rnd.nextInt(8))
    }
    drawn ++ Seq(
      (Array.empty[Int], 0, 6),
      (Array(order(0), order(0)), 1, 5),
      (order.take(3), 1, 2),
      (order.take(2), n, 4),
    )
  }

  private def bounderPairs(idx: CoverageIndex, params: LogisticParams): Seq[(String, Bounder, Bounder)] = {
    val env = new EnvelopeTable(params, idx.ell)
    val order = BranchAndBound.defaultOrder(idx)
    Seq(("greedy", new GreedyBounder(idx, env, order, params),
      new ReferenceBounders.Greedy(idx, env, order, params))) ++
      Seq(0.1, 0.5).map(eps => (s"progressive eps=$eps", new ProgressiveBounder(idx, env, order, params, eps),
        new ReferenceBounders.Progressive(idx, env, order, params, eps)))
  }

  test("the terms the kernel skips for untouched samples are exactly +0.0") {
    for (params <- paramsGrid; ell <- Seq(1, 2, 5)) {
      assert(doubleToLongBits(new EnvelopeTable(params, ell).base(0)) == 0L)
      assert(doubleToLongBits(params.adoptionProb(0)) == 0L)
    }
  }

  test("EnvelopeTable.gains is gain as one flat table") {
    for (params <- paramsGrid; ell <- Seq(1, 2, 5)) {
      val env = new EnvelopeTable(params, ell)
      for (a <- 0 to ell; c <- 0 to ell)
        assert(doubleToLongBits(env.gains(a * (ell + 1) + c)) == doubleToLongBits(env.gain(a, c)),
          s"a=$a c=$c")
    }
  }

  test("reused bounders equal the reference bit for bit, call after call") {
    for ((name, idx) <- shapes; (params, pi) <- paramsGrid.zipWithIndex) {
      // The bounders scan the index's own lists, so none may write them.
      val before = Array.tabulate(idx.candidateCount)(c => idx.coverage(c).clone())
      val pairs = bounderPairs(idx, params)
      // The greedy and the progressive bounders take turns on one index.
      for (((base, freeFrom, k), i) <- calls(pairs.head._2.order, 31L * pi + idx.ell).zipWithIndex;
           (kind, served, ref) <- pairs) {
        val tag = s"$name $params $kind call $i (base=${base.mkString(",")} freeFrom=$freeFrom k=$k)"
        val evals0 = (served.tauEvals, ref.tauEvals)
        assertSame(tag, served.computeBound(base, freeFrom, k), ref.computeBound(base, freeFrom, k))
        assert(served.tauEvals - evals0._1 == ref.tauEvals - evals0._2, s"$tag: tauEvals")
      }
      for (c <- 0 until idx.candidateCount)
        assert(idx.coverage(c).sameElements(before(c)), s"$name $params: coverage($c) changed")
    }
  }

  test("BranchAndBound.run with the served bounders equals the reference search") {
    for ((name, idx) <- shapes.filter(_._2.ell > 1); params <- paramsGrid;
         (kind, served, ref) <- bounderPairs(idx, params)) {
      val cfg = BabConfig(k = 6, maxBoundCalls = 60)
      val got = BranchAndBound.run(idx, params, served, cfg)
      val want = BranchAndBound.run(idx, params, ref, cfg)
      val tag = s"$name $params $kind"
      assert(got.candidates.toSeq == want.candidates.toSeq, tag)
      assert(doubleToLongBits(got.sigma) == doubleToLongBits(want.sigma), tag)
      assert(doubleToLongBits(got.upperBound) == doubleToLongBits(want.upperBound), tag)
      assert(got.boundCalls == want.boundCalls && got.tauEvals == want.tauEvals, tag)
    }
  }

  test("a bounder rejects an order that repeats a candidate or leaves the candidate range") {
    val idx = sharedCells
    val params = paramsGrid.head
    val env = new EnvelopeTable(params, idx.ell)
    for (order <- Seq(Array(0, 1, 1), Array(0, -1), Array(0, idx.candidateCount))) {
      intercept[IllegalArgumentException](new GreedyBounder(idx, env, order, params))
      intercept[IllegalArgumentException](new ProgressiveBounder(idx, env, order, params, 0.5))
    }
  }

  test("a bounder rejects an envelope table of another ℓ or other logistic parameters") {
    // Either mismatch can return a τ below σ with no error.
    val idx = shape(3, 2L, 0)
    val params = LogisticParams.fromRatio(0.5)
    val order = BranchAndBound.defaultOrder(idx)
    def rejected(env: EnvelopeTable): Seq[String] = Seq(
      intercept[IllegalArgumentException](new GreedyBounder(idx, env, order, params)).getMessage,
      intercept[IllegalArgumentException](new ProgressiveBounder(idx, env, order, params, 0.5)).getMessage)
    for (msg <- rejected(new EnvelopeTable(params, 2)))
      assert(msg.contains("ℓ=2") && msg.contains("ℓ=3"), msg)
    val other = LogisticParams.fromRatio(0.3)
    for (msg <- rejected(new EnvelopeTable(other, 3)))
      assert(msg.contains(other.toString) && msg.contains(params.toString), msg)
  }

  test("computeBound rejects a bad base or freeFrom before touching its state") {
    val idx = shapes.head._2
    val params = paramsGrid.head
    for ((kind, served, _) <- bounderPairs(idx, params)) {
      val order = served.order
      val n = idx.candidateCount
      served.computeBound(Array(order(0)), 1, 4)
      for (bad <- Seq(-1, n)) {
        val e = intercept[IllegalArgumentException](served.computeBound(Array(order(1), bad), 2, 5))
        assert(e.getMessage.contains(s"base candidate $bad"), s"$kind: ${e.getMessage}")
      }
      for (bad <- Seq(-1, order.length + 1)) {
        val e = intercept[IllegalArgumentException](served.computeBound(Array(order(1)), bad, 5))
        assert(e.getMessage.contains(s"freeFrom $bad"), s"$kind: ${e.getMessage}")
      }
      val fresh = bounderPairs(idx, params).find(_._1 == kind).get._2
      assertSame(s"$kind after rejected calls", served.computeBound(Array(order(1)), 2, 5),
        fresh.computeBound(Array(order(1)), 2, 5))
    }
  }
}
