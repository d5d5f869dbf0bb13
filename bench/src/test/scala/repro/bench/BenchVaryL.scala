package repro.bench

import repro.core.LogisticParams
import repro.exp.Experiments
import repro.exp.Experiments.fmt

/** Figure 5: adoption utility and selection time vs the number of viral
  * pieces ℓ (k=50, β/α=0.5, ε=0.5). One sampling pass at ℓ=5 serves every ℓ
  * via exact piece-prefix restriction.
  */
class BenchVaryL extends BenchBase {

  private val params = LogisticParams.fromRatio(0.5)
  private val k = 50

  BenchConfig.datasets.foreach { spec =>
    test(s"Figure 5 — vary l on ${spec.name}") {
      val full = prepared(spec)
      val rows = (1 to BenchConfig.MaxEll).flatMap { ell =>
        val prep = Experiments.restrict(full, ell)
        val rs = Experiments.runAll(prep, k, params)
        val byName = rs.map(r => r.name -> r).toMap
        assert(byName("BAB").utility >= byName("TIM").utility * 0.999, s"l=$ell")
        assert(byName("BAB").utility >= byName("IM").utility - 1e-9, s"l=$ell")
        rs.map(r => Seq(spec.name, ell.toString, r.name, fmt(r.utility), r.timeMs.toString))
      }
      report(s"Figure 5 — vary l (${spec.name})",
        Seq("dataset", "l", "method", "utility", "time_ms"), rows)
    }
  }

  test("the BAB advantage over TIM widens with more pieces") {
    // Paper §VI-D: single-piece baselines degrade as l grows because a user
    // needs several pieces to adopt. At l=1 TIM equals the problem BAB
    // solves; by l=5 BAB must be strictly ahead.
    BenchConfig.datasets.foreach { spec =>
      val full = prepared(spec)
      def gainAt(ell: Int): Double = {
        val prep = Experiments.restrict(full, ell)
        val rs = Experiments.runAll(prep, k, params, methods = Set("TIM", "BAB"))
        val byName = rs.map(r => r.name -> r.utility).toMap
        byName("BAB") / math.max(byName("TIM"), 1e-9)
      }
      val g1 = gainAt(1)
      val g5 = gainAt(5)
      assert(g1 <= 1.05, s"${spec.name}: at l=1 TIM should nearly match BAB, ratio $g1")
      assert(g5 >= g1 * 0.999, s"${spec.name}: ratio should not shrink: l1=$g1 l5=$g5")
    }
  }
}
