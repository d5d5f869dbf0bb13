package repro.influence

import repro.SparkSpec
import repro.core._
import repro.exp.Experiments
import repro.influence.MrrSampler.MrrConfig
import repro.testkit.ExampleGraphs

/** End-to-end reproduction of the paper's running example (Figure 1,
  * Examples 1–3): the full pipeline — graph, MRR sampling, coverage index,
  * branch-and-bound — must recover the optimal plan {{a}, {e}} with utility
  * ≈ 1.05 under a budget of two assignments.
  */
class ExampleOneSpec extends SparkSpec {

  private val params = LogisticParams(3.0, 1.0)
  private lazy val edgesDf = TopicGraph.fromEdges(spark, ExampleGraphs.edges)
  private val theta = 4000
  private lazy val mrr = MrrSampler
    .sampleBroadcast(spark, edgesDf, 5, ExampleGraphs.pieces, MrrConfig(theta, seed = 31L))
    .cache()
  // Every user is an eligible promoter in the example.
  private lazy val idx = CoverageIndex.build(mrr, theta, 2, 5, Array(0L, 1L, 2L, 3L, 4L))

  test("per-piece influence graphs match Figure 1 (b) and (c)") {
    def projection(t: Piece): Set[(Long, Long)] =
      ExampleGraphs.edges.filter(e => t.edgeProb(e.probs) > 0).map(e => (e.src, e.dst)).toSet
    val g1 = projection(ExampleGraphs.t1)
    val g2 = projection(ExampleGraphs.t2)
    assert(g1 == Set((0L, 1L), (1L, 2L), (2L, 3L)))
    assert(g2 == Set((4L, 3L), (3L, 2L), (2L, 1L)))
  }

  test("indicator pattern of Example 1: a covers {a,b,c,d} for t1, e covers {b,c,d,e} for t2") {
    assert(ExampleGraphs.rrSet(ExampleGraphs.E, 0) == Set(ExampleGraphs.E))
    (0 to 3).foreach { v => // a, b, c, d all have a in their t1 RR set
      assert(ExampleGraphs.rrSet(v.toLong, 0).contains(ExampleGraphs.A))
    }
    assert(!ExampleGraphs.rrSet(ExampleGraphs.A, 1).contains(ExampleGraphs.E))
    (1 to 4).foreach { v =>
      assert(ExampleGraphs.rrSet(v.toLong, 1).contains(ExampleGraphs.E))
    }
  }

  test("BAB recovers the optimal plan {{a}, {e}} with budget 2") {
    val res = Experiments.search("BAB", idx, params, BabConfig(k = 2, gapTol = 0.0))
    assert(res.plan == Plan(Vector(Set(ExampleGraphs.A), Set(ExampleGraphs.E))), res.plan.toString)
    assert(math.abs(res.sigma - 1.0452) < 0.06, s"sigma=${res.sigma}")
  }

  test("BAB-P recovers the same plan") {
    val res = Experiments.search("BAB-P", idx, params, BabConfig(k = 2, gapTol = 0.0), eps = 0.5)
    assert(res.plan == Plan(Vector(Set(ExampleGraphs.A), Set(ExampleGraphs.E))), res.plan.toString)
  }

  test("the MRR optimum matches the exact brute-force optimum") {
    val (_, estOpt) = BruteForce.bestByAu(idx, params, 2)
    val (exactPlan, exactOpt) = BruteForce.bestExact(
      ExampleGraphs.edges, ExampleGraphs.vertices, ExampleGraphs.pieces,
      ExampleGraphs.vertices, 2, params)
    assert(exactPlan == Plan(Vector(Set(ExampleGraphs.A), Set(ExampleGraphs.E))))
    assert(math.abs(estOpt - exactOpt) < 0.06, s"est=$estOpt exact=$exactOpt")
  }

  test("baselines are strictly worse than BAB on the example") {
    val bab = Experiments.search("BAB", idx, params, BabConfig(k = 2, gapTol = 0.0))
    val tim = Baselines.runTIM(idx, params, k = 2)
    assert(tim.sigma < bab.sigma)
    // TIM's best single-piece plan: two seeds on one piece reach at most all
    // five users once each → utility ≤ 5 · adoptionProb(1) ≈ 0.6.
    assert(tim.sigma <= 5 * params.adoptionProb(1) + 0.05)
  }

  test("single-assignment budget picks one central seed") {
    val res = Experiments.search("BAB", idx, params, BabConfig(k = 1, gapTol = 0.0))
    assert(res.candidates.length == 1)
    // Best single assignment: a on t1 (covers 4 users) or e on t2 (covers 4).
    val plan = res.plan
    val ok = plan == Plan(Vector(Set(ExampleGraphs.A), Set.empty[Long])) ||
      plan == Plan(Vector(Set.empty[Long], Set(ExampleGraphs.E)))
    assert(ok, plan.toString)
  }
}
