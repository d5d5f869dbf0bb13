package repro.bench

import repro.core.LogisticParams
import repro.exp.Experiments
import repro.exp.Experiments.fmt

/** Figure 4: adoption utility and selection time vs budget k for the four
  * compared methods (ℓ=3, β/α=0.5, ε=0.5).
  */
class BenchVaryK extends BenchBase {

  private val params = LogisticParams.fromRatio(0.5)
  private val ks = Seq(10, 20, 50, 100)

  BenchConfig.datasets.foreach { spec =>
    test(s"Figure 4 — vary k on ${spec.name}") {
      val prep = Experiments.restrict(prepared(spec), 3)
      val rows = ks.flatMap { k =>
        val rs = Experiments.runAll(prep, k, params)
        val byName = rs.map(r => r.name -> r).toMap
        // Shape: BAB beats both IM-style baselines; BAB-P stays close to BAB.
        assert(byName("BAB").utility >= byName("IM").utility - 1e-9, s"k=$k")
        assert(byName("BAB").utility >= byName("TIM").utility * 0.999, s"k=$k")
        assert(byName("BAB-P").utility >= 0.65 * byName("BAB").utility, s"k=$k")
        rs.map(r => Seq(spec.name, k.toString, r.name, fmt(r.utility),
          r.timeMs.toString, r.tauEvals.toString, fmt(r.gap)))
      }
      report(s"Figure 4 — vary k (${spec.name})",
        Seq("dataset", "k", "method", "utility", "time_ms", "tau_evals", "gap"), rows)
    }
  }

  test("utility is non-decreasing in k for BAB") {
    BenchConfig.datasets.foreach { spec =>
      val prep = Experiments.restrict(prepared(spec), 3)
      val utils = ks.map { k =>
        Experiments.runAll(prep, k, params, methods = Set("BAB"))
          .head.utility
      }
      utils.sliding(2).foreach { case Seq(a, b) =>
        assert(b >= a * 0.999, s"${spec.name}: $utils")
      }
    }
  }
}
