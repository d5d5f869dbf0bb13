package repro.bench

import repro.core.LogisticParams
import repro.exp.Experiments
import repro.exp.Experiments.fmt

/** Figure 6: adoption utility vs the adoption-difficulty ratio β/α
  * (k=50, ℓ=3, ε=0.5). The MRR samples are independent of (α, β), so one
  * sampling pass serves the whole sweep.
  */
class BenchVaryBetaAlpha extends BenchBase {

  private val ratios = Seq(0.3, 0.5, 0.7)
  private val k = 50

  BenchConfig.datasets.foreach { spec =>
    test(s"Figure 6 — vary beta/alpha on ${spec.name}") {
      val prep = Experiments.restrict(prepared(spec), 3)
      val rows = ratios.flatMap { ratio =>
        val rs = Experiments.runAll(prep, k, LogisticParams.fromRatio(ratio))
        val byName = rs.map(r => r.name -> r).toMap
        assert(byName("BAB").utility >= byName("TIM").utility * 0.999, s"ratio=$ratio")
        assert(byName("BAB").utility >= byName("IM").utility - 1e-9, s"ratio=$ratio")
        rs.map(r => Seq(spec.name, ratio.toString, r.name, fmt(r.utility), r.timeMs.toString))
      }
      report(s"Figure 6 — vary beta/alpha (${spec.name})",
        Seq("dataset", "beta/alpha", "method", "utility", "time_ms"), rows)
    }
  }

  test("utility rises with beta/alpha and BAB's edge is larger when adoption is harder") {
    BenchConfig.datasets.foreach { spec =>
      val prep = Experiments.restrict(prepared(spec), 3)
      def at(ratio: Double): Map[String, Double] =
        Experiments.runAll(prep, k, LogisticParams.fromRatio(ratio),
          methods = Set("TIM", "BAB"))
          .map(r => r.name -> r.utility).toMap
      val hard = at(0.3)
      val easy = at(0.7)
      assert(easy("BAB") > hard("BAB"), s"${spec.name}: easier adoption must raise utility")
      // Paper §VI-E: the improvement ratio over TIM grows as beta/alpha shrinks.
      val hardEdge = hard("BAB") / math.max(hard("TIM"), 1e-9)
      val easyEdge = easy("BAB") / math.max(easy("TIM"), 1e-9)
      assert(hardEdge >= easyEdge * 0.95,
        s"${spec.name}: hardEdge=$hardEdge easyEdge=$easyEdge")
    }
  }
}
