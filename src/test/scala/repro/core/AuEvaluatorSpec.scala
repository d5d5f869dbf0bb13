package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.graphgen.{SocialGraphGen, TestDatasets}
import repro.influence.{MrrSampler, Piece, TopicGraph}
import repro.influence.MrrSampler.MrrConfig
import repro.testkit.{ExampleGraphs, RowIndexReference}

class AuEvaluatorSpec extends SparkSpec {

  private val params = LogisticParams(3.0, 1.0)
  private val theta = 400
  private lazy val miniEdges = SocialGraphGen.generate(spark, TestDatasets.mini).cache()
  private lazy val pieces = Seq(Piece.oneHot(0, 5), Piece.oneHot(2, 5), Piece.oneHot(4, 5))
  private lazy val mrr = MrrSampler
    .sampleBroadcast(spark, miniEdges, TestDatasets.mini.nVertices, pieces, MrrConfig(theta, seed = 21L))
    .cache()
  private lazy val promoters = SocialGraphGen.promoters(TestDatasets.mini)
  private lazy val idx =
    CoverageIndex.build(mrr, theta, pieces.length, TestDatasets.mini.nVertices, promoters)

  private def somePlan(nSeeds: Int): Plan = {
    val picks = promoters.take(nSeeds)
    Plan.fromAssignments(pieces.length, picks.zipWithIndex.map { case (v, i) => (v, i % pieces.length) })
  }

  test("in-memory and DataFrame estimators agree on random plans") {
    for (n <- Seq(1, 3, 6, 10)) {
      val plan = somePlan(n)
      val a = idx.auOfPlan(plan, params)
      val b = AuEvaluator.evaluate(spark, mrr, plan, params, TestDatasets.mini.nVertices, theta)
      assert(math.abs(a - b) < 1e-9, s"n=$n: auOfPlan=$a dataFrame=$b")
    }
  }

  test("empty plan evaluates to zero on both paths") {
    val plan = Plan.empty(pieces.length)
    assert(idx.auOfPlan(plan, params) == 0.0)
    assert(AuEvaluator.evaluate(spark, mrr, plan, params, TestDatasets.mini.nVertices, theta) == 0.0)
  }

  test("coverage counts match DuckDB (oracle)") {
    val plan = somePlan(6)
    val counts = AuEvaluator.coverageCounts(spark, mrr, plan)
      .select(col("sample").cast("long").as("sample"), col("cnt").cast("long").as("cnt"))
    val planDf = {
      import spark.implicits._
      plan.assignments.map { case (v, j) => (j, v) }.toDF("piece", "v")
    }
    Oracle.assertEquivalent(
      counts,
      """SELECT CAST(sample AS BIGINT) AS sample, CAST(COUNT(DISTINCT piece) AS BIGINT) AS cnt
        |FROM (SELECT m.sample, m.piece FROM mrr m JOIN plan p
        |      ON m.piece = p.piece AND m.v = p.v)
        |GROUP BY sample""".stripMargin,
      "mrr" -> mrr, "plan" -> planDf)
  }

  test("the AU aggregate matches DuckDB (oracle)") {
    val plan = somePlan(8)
    val au = AuEvaluator.dataFrame(spark, mrr, plan, params, TestDatasets.mini.nVertices, theta)
    val planDf = {
      import spark.implicits._
      plan.assignments.map { case (v, j) => (j, v) }.toDF("piece", "v")
    }
    val n = TestDatasets.mini.nVertices
    Oracle.assertEquivalent(
      au,
      s"""SELECT CAST($n AS DOUBLE) / $theta *
         |       COALESCE(SUM(1.0 / (1.0 + EXP(${params.alpha} - ${params.beta} * cnt))), 0) AS au
         |FROM (SELECT sample, COUNT(DISTINCT piece) AS cnt
         |      FROM (SELECT m.sample, m.piece FROM mrr m JOIN plan p
         |            ON m.piece = p.piece AND m.v = p.v)
         |      GROUP BY sample)""".stripMargin,
      "mrr" -> mrr, "plan" -> planDf)
  }

  test("AU estimate is monotone in the plan") {
    val small = somePlan(2)
    val big = somePlan(8)
    assert(idx.auOfPlan(small, params) <= idx.auOfPlan(big, params))
  }

  test("the estimator converges to the exact sigma on Example 1") {
    // Deterministic graph: the only sampling noise is the root draw.
    val exampleDf = TopicGraph.fromEdges(spark, ExampleGraphs.edges)
    val bigTheta = 4000
    val exMrr = MrrSampler.sampleBroadcast(spark, exampleDf, 5, ExampleGraphs.pieces,
      MrrConfig(bigTheta, seed = 23L))
    val plan = Plan(Vector(Set(ExampleGraphs.A), Set(ExampleGraphs.E)))
    val est = AuEvaluator.evaluate(spark, exMrr, plan, params, 5, bigTheta)
    val exact = ExactAu.sigma(ExampleGraphs.edges, ExampleGraphs.vertices,
      ExampleGraphs.pieces, plan, params)
    assert(math.abs(est - exact) < 0.06, s"est=$est exact=$exact")
  }

  test("Table II: the four-sample MRR estimate of {{a},{e}} is 1.16") {
    // Manual index replicating Table II's RR sets (roots c, a, b, c).
    val lists = Map(
      (ExampleGraphs.A, 0) -> Seq(0, 1, 2, 3), // a is in every t1 RR set
      (ExampleGraphs.E, 1) -> Seq(0, 2, 3),    // e is in R1, R3, R4 for t2
    )
    val manual = repro.testkit.SyntheticIndex.explicit(
      theta = 4, ell = 2, nVertices = 5,
      promoters = Array(ExampleGraphs.A, ExampleGraphs.E), lists = lists)
    val plan = Plan(Vector(Set(ExampleGraphs.A), Set(ExampleGraphs.E)))
    val est = manual.auOfPlan(plan, params)
    // 5/4 · (0.27 + 0.12 + 0.27 + 0.27) with exact sigmoids = 1.157…
    assert(math.abs(est - 1.1574) < 1e-3, s"est=$est")
  }

  test("estimator scale follows n/theta") {
    val doubled = new CoverageIndex(idx.theta, idx.ell, idx.nVertices * 2,
      idx.promoters, (0 until idx.candidateCount).map(idx.coverage).toArray)
    val plan = somePlan(4)
    assert(math.abs(doubled.auOfPlan(plan, params) - 2 * idx.auOfPlan(plan, params)) < 1e-9)
    val noSamples = intercept[IllegalArgumentException](
      AuEvaluator.dataFrame(spark, mrr, plan, params, TestDatasets.mini.nVertices, 0)).getMessage
    assert(noSamples.contains("theta must be at least 1, got 0"), noSamples)
    val noVertices = intercept[IllegalArgumentException](
      AuEvaluator.dataFrame(spark, mrr, plan, params, -5L, theta)).getMessage
    assert(noVertices.contains("nVertices must be at least 1, got -5"), noVertices)
  }

  test("CoverageIndex.build keeps promoter rows and rejects out-of-range samples and pieces") {
    import spark.implicits._
    def build(rows: (Int, Int, Long)*): CoverageIndex =
      RowIndexReference.build(rows.toDF("sample", "piece", "v"), 3, 2, 10, Array(7L, 5L))
    val built = build((0, 0, 5L), (2, 1, 7L), (1, 0, 9L), (2, 1, 7L))
    assert(built.promoters.toSeq == Seq(5L, 7L))
    assert(built.coverage(built.candidateOf(5L, 0)).toSeq == Seq(0))
    assert(built.coverage(built.candidateOf(7L, 1)).toSeq == Seq(2))
    assert((0 until built.candidateCount).map(built.coverage(_).length).sum == 2,
      "the non-promoter row (1, 0, 9) must be ignored")
    intercept[IllegalArgumentException](build((3, 0, 5L)))
    intercept[IllegalArgumentException](build((0, 2, 5L)))
  }

  private def sameIndex(a: CoverageIndex, b: CoverageIndex): Boolean =
    a.theta == b.theta && a.ell == b.ell && a.nVertices == b.nVertices &&
      a.promoters.sameElements(b.promoters) &&
      (0 until a.candidateCount).forall(c => a.coverage(c).sameElements(b.coverage(c)))

  test("build rejects an int v column and a long sample column") {
    import spark.implicits._
    // A negative id must come back as itself.
    val rows = Seq((0, 0, 5), (2, 1, 7), (1, 0, 9), (1, 1, 5), (0, 1, -3))
    def build(df: org.apache.spark.sql.DataFrame): CoverageIndex =
      RowIndexReference.build(df, 3, 2, 10, Array(7L, 5L, -3L))
    val intV = intercept[IllegalArgumentException](build(rows.toDF("sample", "piece", "v"))).getMessage
    assert(intV.contains("column v") && intV.contains("int") && intV.contains("bigint"), intV)
    val byLong = build(rows.map { case (s, j, v) => (s, j, v.toLong) }.toDF("sample", "piece", "v"))
    assert(byLong.coverage(byLong.candidateOf(5L, 1)).toSeq == Seq(1))
    assert(byLong.coverage(byLong.candidateOf(-3L, 1)).toSeq == Seq(0))
    val longSample = intercept[IllegalArgumentException](
      build(rows.map { case (s, j, v) => (s.toLong, j, v.toLong) }.toDF("sample", "piece", "v")))
    assert(longSample.getMessage.contains("sample") && longSample.getMessage.contains("bigint"))
    val longPiece = intercept[IllegalArgumentException](
      build(rows.map { case (s, j, v) => (s, j.toLong, v.toLong) }.toDF("sample", "piece", "v")))
    assert(longPiece.getMessage.contains("piece"))
    val doubleV = intercept[IllegalArgumentException](
      build(rows.map { case (s, j, v) => (s, j, v.toDouble) }.toDF("sample", "piece", "v")))
    assert(doubleV.getMessage.contains("column v"))
    val missingV = intercept[IllegalArgumentException](
      build(rows.map { case (s, j, v) => (s, j, v.toLong) }.toDF("sample", "piece", "vertex"))).getMessage
    assert(missingV.contains("column v") && missingV.contains("bigint"), missingV)
  }

  test("build rejects a null in an MRR row") {
    import spark.implicits._
    // A null long reads as 0 from its row slot, so without the guard the
    // second row would silently record promoter 0.
    val df = Seq((0, 0, Some(5L)), (1, 0, None)).toDF("sample", "piece", "v")
    val e = intercept[Exception](RowIndexReference.build(df, 2, 1, 10, Array(0L, 5L)))
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
    assert(causes.exists(t => String.valueOf(t.getMessage).contains("null in an MRR row")), e.toString)
  }

  test("build takes a shuffled pool with repeats as the sorted distinct pool") {
    val shuffled = new scala.util.Random(5).shuffle((promoters ++ promoters.take(40)).toSeq).toArray
    assert(!shuffled.sameElements(promoters.sorted) && shuffled.distinct.length < shuffled.length)
    val built = CoverageIndex.build(mrr, theta, pieces.length, TestDatasets.mini.nVertices, shuffled)
    assert(built.promoters.sameElements(promoters.sorted.distinct))
    assert(sameIndex(built, idx))
  }

  test("build is independent of partitioning, duplicates included") {
    val doubled = mrr.union(mrr)
    def build(df: org.apache.spark.sql.DataFrame): CoverageIndex =
      RowIndexReference.build(df, theta, pieces.length, TestDatasets.mini.nVertices, promoters)
    val one = build(doubled.repartition(1))
    val seven = build(doubled.repartition(7))
    assert(sameIndex(one, seven))
    assert(sameIndex(one, idx), "duplicate rows must not change any coverage list")
  }
}
