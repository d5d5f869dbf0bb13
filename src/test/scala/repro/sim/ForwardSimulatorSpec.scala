package repro.sim

import repro.SparkSpec
import repro.core.{CoverageIndex, ExactAu, LogisticParams, Plan}
import repro.graphgen.{SocialGraphGen, TestDatasets}
import repro.influence.{MrrSampler, Piece, TopicGraph}
import repro.influence.MrrSampler.MrrConfig
import repro.influence.TopicGraph.TopicEdge
import repro.testkit.ExampleGraphs

class ForwardSimulatorSpec extends SparkSpec {

  private val params = LogisticParams(3.0, 1.0)
  private val examplePlan = Plan(Vector(Set(ExampleGraphs.A), Set(ExampleGraphs.E)))

  test("deterministic graph: one round equals the exact sigma") {
    val s = ForwardSimulator.sigma(ExampleGraphs.edges, ExampleGraphs.pieces,
      examplePlan, params, rounds = 1)
    val exact = ExactAu.sigma(ExampleGraphs.edges, ExampleGraphs.vertices,
      ExampleGraphs.pieces, examplePlan, params)
    assert(math.abs(s - exact) < 1e-9)
  }

  test("empty plan simulates to zero") {
    val s = ForwardSimulator.sigma(ExampleGraphs.edges, ExampleGraphs.pieces,
      Plan.empty(2), params, rounds = 3)
    assert(s == 0.0)
  }

  test("Monte-Carlo converges to the exact sigma on a probabilistic graph") {
    val pieces = Seq(Piece.oneHot(0, 2), Piece.oneHot(1, 2))
    val edges = Seq(
      TopicEdge(0L, 1L, Array(0.7, 0.0)),
      TopicEdge(1L, 2L, Array(0.5, 0.4)),
      TopicEdge(3L, 2L, Array(0.0, 0.8)),
      TopicEdge(2L, 4L, Array(0.3, 0.6)),
    )
    val plan = Plan(Vector(Set(0L), Set(3L)))
    val vs = Seq(0L, 1L, 2L, 3L, 4L)
    val exact = ExactAu.sigma(edges, vs, pieces, plan, params)
    val mc = ForwardSimulator.sigma(edges, pieces, plan, params, rounds = 20000)
    assert(math.abs(mc - exact) < 0.02, s"mc=$mc exact=$exact")
  }

  test("forward simulation cross-validates the MRR estimator on a random graph") {
    // Two estimators that share no code path must agree on the same sigma.
    val spec = TestDatasets.mini
    val edgesDf = SocialGraphGen.generate(spark, spec).cache()
    val edges = TopicGraph.collectEdges(edgesDf)
    val pieces = Seq(Piece.oneHot(0, 5), Piece.oneHot(3, 5))
    val promoters = SocialGraphGen.promoters(spec)
    val theta = 6000
    val mrr = MrrSampler.sampleBroadcast(spark, edgesDf, spec.nVertices, pieces,
      MrrConfig(theta, seed = 41L))
    val idx = CoverageIndex.build(mrr, theta, 2, spec.nVertices, promoters)
    val plan = Plan.fromAssignments(2,
      promoters.take(6).zipWithIndex.map { case (v, i) => (v, i % 2) })
    val mrrEst = idx.auOfPlan(plan, params)
    val fwdEst = ForwardSimulator.sigma(edges, pieces,
      plan, params, rounds = 4000)
    val tol = 0.05 * math.max(mrrEst, fwdEst) + 0.05
    assert(math.abs(mrrEst - fwdEst) < tol, s"mrr=$mrrEst forward=$fwdEst")
  }

  test("more seeds never reduce the simulated sigma") {
    val small = Plan(Vector(Set(ExampleGraphs.A), Set.empty[Long]))
    val big = examplePlan
    val a = ForwardSimulator.sigma(ExampleGraphs.edges, ExampleGraphs.pieces, small, params, 4)
    val b = ForwardSimulator.sigma(ExampleGraphs.edges, ExampleGraphs.pieces, big, params, 4)
    assert(a <= b)
  }

  test("invalid arguments are rejected") {
    intercept[IllegalArgumentException](
      ForwardSimulator.sigma(ExampleGraphs.edges, ExampleGraphs.pieces, Plan.empty(3), params, 2))
    intercept[IllegalArgumentException](
      ForwardSimulator.sigma(ExampleGraphs.edges, ExampleGraphs.pieces, Plan.empty(2), params, 0))
  }
}
