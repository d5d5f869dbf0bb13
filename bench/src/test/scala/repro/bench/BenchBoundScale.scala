package repro.bench

import repro.core._
import repro.exp.Experiments
import repro.graphgen.Datasets

/** Cost of one ComputeBound call as θ grows toward the paper's 10⁶: lastfm,
  * ℓ = 3, k = 50, β/α = 0.3, 1 % gap and a 60-call cap, at
  * θ ∈ {10⁴, 10⁵, 4·10⁵}. Only the time inside `computeBound` counts: each
  * search runs once to warm up, then `Runs` times, and the table gives the
  * median, min and max ms per call with the search's bound calls,
  * τ-evaluations and σ.
  */
class BenchBoundScale extends BenchBase {

  private val spec = Datasets.lastfmLike
  private val Ell = 3
  private val params = LogisticParams.fromRatio(0.3)
  private val cfg = BabConfig(k = 50, maxBoundCalls = 60)
  private val Eps = 0.5
  private val Thetas = Seq(10000, 100000, 400000)
  private val Runs = 9

  /** Delegates to `inner` and adds up the time spent in its `computeBound`. */
  private final class TimingBounder(inner: Bounder) extends Bounder {
    var nanos = 0L
    var calls = 0

    override def idx: CoverageIndex = inner.idx

    override def tauEvals: Long = inner.tauEvals

    override def computeBound(base: Array[Int], freeFrom: Int, k: Int): BoundResult = {
      val t0 = System.nanoTime()
      val r = inner.computeBound(base, freeFrom, k)
      nanos += System.nanoTime() - t0
      calls += 1
      r
    }
  }

  /** One search on a fresh bounder: (ms per bound call, result). */
  private def search(method: String, idx: CoverageIndex): (Double, BabResult) = {
    val timed = new TimingBounder(Experiments.bounder(method, idx, params, Eps))
    val r = BranchAndBound.run(idx, params, timed, cfg)
    (timed.nanos / 1e6 / timed.calls, r)
  }

  test("bound-call cost of BAB and BAB-P against theta") {
    val rows = Thetas.flatMap { theta =>
      val idx = Experiments.prepare(spark, spec, ell = Ell, theta = theta).idx
      val results = Seq("BAB", "BAB-P").map { method =>
        search(method, idx)
        val runs = Seq.fill(Runs)(search(method, idx))
        val r = runs.head._2
        runs.foreach { case (_, again) =>
          assert(again.candidates.toSeq == r.candidates.toSeq && again.tauEvals == r.tauEvals,
            s"theta=$theta $method: repeated searches differ")
        }
        (method, runs.map(_._1).sorted, r)
      }
      val bab = results(0)._3
      val babP = results(1)._3
      assert(babP.tauEvals < bab.tauEvals, s"theta=$theta: BAB-P ${babP.tauEvals} vs BAB ${bab.tauEvals} tau-evals")
      results.map { case (method, ms, r) =>
        Seq(theta.toString, method, f"${ms(Runs / 2)}%.3f", f"${ms.head}%.3f", f"${ms.last}%.3f",
          r.boundCalls.toString, r.tauEvals.toString, r.sigma.toString)
      }
    }
    report("Bound-call cost vs theta (lastfm, l=3, k=50, b/a=0.3, 60-call cap)",
      Seq("theta", "method", "ms_per_call", "min_ms", "max_ms", "bound_calls", "tau_evals", "sigma"), rows)
  }
}
