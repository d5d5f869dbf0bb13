package repro.bench

import repro.core.LogisticParams
import repro.exp.Experiments
import repro.exp.Experiments.fmt

/** Headline efficiency claim (§VI-C): the progressive upper-bound estimation
  * (BAB-P) is substantially faster than plain branch-and-bound (BAB) at equal
  * search budget, with near-equivalent utility — the paper reports up to
  * 24×/22×/8.1× on lastfm/dblp/tweet.
  */
class BenchSpeedup extends BenchBase {

  private val params = LogisticParams.fromRatio(0.5)

  test("BAB-P vs BAB speedup at k = 50 and 100") {
    val rows = for {
      spec <- BenchConfig.datasets
      k <- Seq(50, 100)
    } yield {
      val prep = Experiments.restrict(prepared(spec), 3)
      val rs = Experiments.runAll(prep, k, params, methods = Set("BAB", "BAB-P"))
      val bab = rs.find(_.name == "BAB").get
      val pro = rs.find(_.name == "BAB-P").get
      val speedup = bab.timeMs.toDouble / math.max(pro.timeMs, 1L)
      val evalRatio = bab.tauEvals.toDouble / math.max(pro.tauEvals, 1L)
      val quality = pro.utility / math.max(bab.utility, 1e-9)
      // Shape: BAB-P must do far fewer tau evaluations without losing much quality.
      assert(evalRatio > 1.0, s"${spec.name} k=$k: evalRatio=$evalRatio")
      assert(quality > 0.65, s"${spec.name} k=$k: quality=$quality")
      Seq(spec.name, k.toString, bab.timeMs.toString, pro.timeMs.toString,
        fmt(speedup), fmt(evalRatio), fmt(quality))
    }
    report("Speedup — BAB vs BAB-P",
      Seq("dataset", "k", "BAB_ms", "BAB-P_ms", "speedup", "tau_eval_ratio", "utility_ratio"),
      rows)
  }
}
