package repro.bench

import repro.core.LogisticParams
import repro.exp.Experiments
import repro.exp.Experiments.fmt

/** Figure 3: BAB-P adoption utility (and time) vs the progressive-threshold
  * parameter ε (k=50, ℓ=3, β/α=0.5). The paper observes a mild descending
  * utility trend as ε rises (0.08 %–6.6 % drop from ε=0.1 to 0.9).
  */
class BenchEpsilon extends BenchBase {

  private val params = LogisticParams.fromRatio(0.5)
  private val epsilons = Seq(0.1, 0.3, 0.5, 0.7, 0.9)
  private val k = 50

  BenchConfig.datasets.foreach { spec =>
    test(s"Figure 3 — vary epsilon on ${spec.name}") {
      val prep = Experiments.restrict(prepared(spec), 3)
      val results = epsilons.map { eps =>
        eps -> Experiments.runAll(prep, k, params, eps = eps, methods = Set("BAB-P")).head
      }
      val rows = results.map { case (eps, r) =>
        Seq(spec.name, eps.toString, fmt(r.utility), r.timeMs.toString, r.tauEvals.toString)
      }
      report(s"Figure 3 — vary epsilon (${spec.name})",
        Seq("dataset", "epsilon", "utility", "time_ms", "tau_evals"), rows)
      // Shape: the smallest epsilon is never materially worse than the largest.
      val u01 = results.head._2.utility
      val u09 = results.last._2.utility
      assert(u01 >= u09 * 0.93, s"${spec.name}: eps=0.1 gave $u01 vs eps=0.9 $u09")
    }
  }
}
