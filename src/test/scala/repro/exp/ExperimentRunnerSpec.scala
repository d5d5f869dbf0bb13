package repro.exp

import repro.SparkSpec
import repro.core.LogisticParams
import repro.graphgen.Datasets

class ExperimentRunnerSpec extends SparkSpec {

  private lazy val prep =
    Experiments.prepare(spark, Datasets.mini, ell = 3, theta = 1500)
  private val params = LogisticParams.fromRatio(0.5)

  test("pieceVectors produces distinct one-hot pieces") {
    val pieces = ExperimentRunner.pieceVectors(4, 10, seed = 3L)
    assert(pieces.length == 4)
    pieces.foreach(p => assert(p.weights.count(_ == 1.0) == 1 && p.weights.sum == 1.0))
    val topics = pieces.map(_.weights.indexOf(1.0))
    assert(topics.distinct.length == 4)
  }

  test("pieceVectors is deterministic and rejects ell > topics") {
    assert(ExperimentRunner.pieceVectors(3, 10, 5L).map(_.weights.toSeq) ==
      ExperimentRunner.pieceVectors(3, 10, 5L).map(_.weights.toSeq))
    intercept[IllegalArgumentException](ExperimentRunner.pieceVectors(11, 10, 5L))
    val noPieces = intercept[IllegalArgumentException](ExperimentRunner.pieceVectors(0, 10, 5L))
    assert(noPieces.getMessage.contains("ℓ=0"), noPieces.getMessage)
  }

  test("piece sweeps share a prefix: same seed gives nested campaigns") {
    val p3 = ExperimentRunner.pieceVectors(3, 10, 7L).map(_.weights.toSeq)
    val p5 = ExperimentRunner.pieceVectors(5, 10, 7L).map(_.weights.toSeq)
    assert(p5.take(3) == p3)
  }

  test("prepare wires up consistent indices") {
    assert(prep.idx.ell == 3)
    assert(prep.mixtureIdx.ell == 1)
    assert(prep.idx.theta == 1500)
    assert(prep.idx.promoters.toSeq == prep.mixtureIdx.promoters.toSeq)
    assert(prep.realizedEdges > 0)
    assert(prep.sampleTimeMs >= 0)
  }

  test("runAll produces all four methods with positive utilities") {
    val rs = Experiments.runAll(prep, k = 5, params)
    assert(rs.map(_.name) == Seq("IM", "TIM", "BAB", "BAB-P"))
    rs.foreach(r => assert(r.utility > 0, s"${r.name} utility=${r.utility}"))
    rs.foreach(r => assert(r.timeMs >= 0))
    rs.filter(r => r.name.startsWith("BAB")).foreach(r =>
      assert(r.boundCalls <= 60, s"${r.name} boundCalls=${r.boundCalls}"))
  }

  test("BAB dominates the baselines; BAB-P stays close to BAB") {
    val rs = Experiments.runAll(prep, k = 8, params).map(r => r.name -> r).toMap
    assert(rs("BAB").utility >= rs("TIM").utility - 1e-9)
    assert(rs("BAB").utility >= rs("IM").utility - 1e-9)
    assert(rs("BAB-P").utility >= 0.7 * rs("BAB").utility,
      s"BAB-P=${rs("BAB-P").utility} BAB=${rs("BAB").utility}")
  }

  test("utility grows with the budget") {
    val small = Experiments.runAll(prep, k = 2, params, methods = Set("BAB"))
    val big = Experiments.runAll(prep, k = 10, params, methods = Set("BAB"))
    assert(big.head.utility >= small.head.utility - 1e-9)
  }

  test("utility grows with beta/alpha (easier adoption)") {
    val hard = Experiments.runAll(prep, k = 5, LogisticParams.fromRatio(0.3), methods = Set("BAB"))
    val easy = Experiments.runAll(prep, k = 5, LogisticParams.fromRatio(0.7), methods = Set("BAB"))
    assert(easy.head.utility > hard.head.utility)
  }

  test("method filter is honoured") {
    val rs = Experiments.runAll(prep, k = 3, params, methods = Set("TIM", "BAB-P"))
    assert(rs.map(_.name) == Seq("TIM", "BAB-P"))
  }

  test("restrict projects the prepared dataset to an ell prefix") {
    val r = Experiments.restrict(prep, 2)
    assert(r.pieces.length == 2 && r.idx.ell == 2)
    assert(r.pieces.map(_.weights.toSeq) == prep.pieces.take(2).map(_.weights.toSeq))
    // A plan over the prefix scores identically on both indices.
    val v = prep.promoters.head
    val plan2 = repro.core.Plan.fromAssignments(2, Seq((v, 0), (v, 1)))
    val plan3 = repro.core.Plan.fromAssignments(3, Seq((v, 0), (v, 1)))
    assert(math.abs(r.idx.auOfPlan(plan2, params) - prep.idx.auOfPlan(plan3, params)) < 1e-12)
  }

  test("markdownTable renders GitHub tables") {
    val t = Experiments.markdownTable(Seq("a", "b"), Seq(Seq("1", "2"), Seq("3", "4")))
    assert(t ==
      "| a | b |\n| --- | --- |\n| 1 | 2 |\n| 3 | 4 |\n")
  }

  test("fmt renders three decimals") {
    assert(Experiments.fmt(1.23456) == "1.235")
  }
}
