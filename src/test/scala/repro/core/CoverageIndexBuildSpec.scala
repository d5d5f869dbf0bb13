package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.graphgen.{Datasets, SocialGraphGen, TestDatasets}
import repro.influence.{MrrSampler, Piece, TopicGraph}
import repro.influence.MrrSampler.MrrConfig
import repro.exp.ExperimentRunner
import repro.testkit.{ExampleGraphs, RowIndexReference}

/** `CoverageIndex.build` runs the sampler's walks fused with the promoter
  * filter; it must equal the index read from the sampler's own rows
  * ([[RowIndexReference]]) list by list, and accept nothing else.
  */
class CoverageIndexBuildSpec extends SparkSpec {

  private lazy val exampleDf = TopicGraph.fromEdges(spark, ExampleGraphs.edges)
  private lazy val mini = SocialGraphGen.generate(spark, TestDatasets.mini).cache()
  private lazy val miniPromoters = SocialGraphGen.promoters(TestDatasets.mini)
  private val miniPieces = Seq(Piece.oneHot(0, 5), Piece.oneHot(3, 5), Piece.uniformMixture(5))

  /** Builds `mrr`'s index both ways and checks they agree list by list;
    * every list is sorted and distinct because the reference's are.
    */
  private def fusedEqualsReference(mrr: DataFrame, theta: Int, ell: Int, n: Long, promoters: Array[Long]): CoverageIndex = {
    val fused = CoverageIndex.build(mrr, theta, ell, n, promoters)
    val ref = RowIndexReference.build(mrr, theta, ell, n, promoters)
    assert((fused.theta, fused.ell, fused.nVertices) == ((ref.theta, ref.ell, ref.nVertices)))
    assert(fused.promoters.sameElements(ref.promoters))
    for (c <- 0 until ref.candidateCount)
      assert(fused.coverage(c).sameElements(ref.coverage(c)),
        s"candidate $c: fused ${fused.coverage(c).take(10).mkString(",")}… reference ${ref.coverage(c).take(10).mkString(",")}…")
    assert((0 until ref.candidateCount).exists(ref.coverage(_).nonEmpty), "a test index needs some coverage")
    fused
  }

  private def sampleMini(theta: Int, seed: Long): DataFrame =
    MrrSampler.sampleBroadcast(spark, mini, TestDatasets.mini.nVertices, miniPieces, MrrConfig(theta, seed))

  test("the fused index equals the row reference on Example 1") {
    val theta = 500
    val mrr = MrrSampler.sampleBroadcast(spark, exampleDf, 5, ExampleGraphs.pieces, MrrConfig(theta, seed = 51L))
    fusedEqualsReference(mrr, theta, 2, 5, Array(0L, 1L, 2L, 3L, 4L))
  }

  test("the fused index equals the row reference on mini, with a shuffled pool holding repeats") {
    val theta = 400
    val mrr = sampleMini(theta, 53L)
    fusedEqualsReference(mrr, theta, miniPieces.length, TestDatasets.mini.nVertices, miniPromoters)
    val shuffled = new scala.util.Random(7).shuffle((miniPromoters ++ miniPromoters.take(20)).toSeq).toArray
    fusedEqualsReference(mrr, theta, miniPieces.length, TestDatasets.mini.nVertices, shuffled)
  }

  test("the fused index equals the row reference on a tweet-like l = 5, theta = 10^4 campaign") {
    val spec = Datasets.tweetLike
    val edges = SocialGraphGen.generate(spark, spec).cache()
    try {
      val theta = 10000
      val pieces = ExperimentRunner.pieceVectors(5, spec.numTopics, 55L)
      val mrr = MrrSampler.sampleBroadcast(spark, edges, spec.nVertices, pieces, MrrConfig(theta, seed = 55L))
      fusedEqualsReference(mrr, theta, 5, spec.nVertices, SocialGraphGen.promoters(spec, 0.1))
    } finally edges.unpersist()
  }

  test("the fused index equals the row reference when theta is not divisible by the slice count") {
    val theta = 37 * spark.sparkContext.defaultParallelism + 1
    fusedEqualsReference(sampleMini(theta, 57L), theta, miniPieces.length, TestDatasets.mini.nVertices, miniPromoters)
  }

  test("the fused index equals the row reference on a cached and a persisted frame") {
    val theta = 300
    val cached = sampleMini(theta, 59L).cache()
    assert(cached.count() > 0)
    fusedEqualsReference(cached, theta, miniPieces.length, TestDatasets.mini.nVertices, miniPromoters)
    val persisted = sampleMini(theta, 61L).persist()
    assert(persisted.count() > 0)
    fusedEqualsReference(persisted, theta, miniPieces.length, TestDatasets.mini.nVertices, miniPromoters)
    cached.unpersist()
    persisted.unpersist()
  }

  test("a frame sampled before another edge table replaced the CSR cache still indexes its own graph") {
    val theta = 300
    val early = sampleMini(theta, 63L)
    val other = MrrSampler.sampleBroadcast(spark, exampleDf, 5, ExampleGraphs.pieces, MrrConfig(200, seed = 65L))
    CoverageIndex.build(other, 200, 2, 5, Array(0L, 4L))
    System.gc()
    fusedEqualsReference(early, theta, miniPieces.length, TestDatasets.mini.nVertices, miniPromoters)
  }

  test("build rejects a frame the sampler did not return, naming MrrSampler.sampleBroadcast") {
    import spark.implicits._
    val theta = 100
    val mrr = sampleMini(theta, 67L)
    val foreign = Seq(
      "union" -> mrr.union(mrr),
      "projection" -> mrr.select("sample", "piece", "v"),
      "repartition" -> mrr.repartition(3),
      "rows" -> Seq((0, 0, 5L)).toDF("sample", "piece", "v"))
    for ((what, df) <- foreign) {
      val e = intercept[IllegalArgumentException](
        CoverageIndex.build(df, theta, miniPieces.length, TestDatasets.mini.nVertices, miniPromoters))
      assert(e.getMessage.contains("MrrSampler.sampleBroadcast"), s"$what: ${e.getMessage}")
    }
  }

  test("build rejects a theta, ell or n other than the sampler's, naming both") {
    val theta = 100
    val ell = miniPieces.length
    val n = TestDatasets.mini.nVertices
    val mrr = sampleMini(theta, 69L)
    def rejected(theta: Int, ell: Int, n: Long): String =
      intercept[IllegalArgumentException](CoverageIndex.build(mrr, theta, ell, n, miniPromoters)).getMessage
    assert(rejected(2 * theta, ell, n) == "requirement failed: theta 200 differs from the sampler's 100")
    assert(rejected(theta / 2, ell, n) == "requirement failed: theta 50 differs from the sampler's 100")
    assert(rejected(theta, ell + 1, n) == "requirement failed: ell 4 differs from the sampler's 3 pieces")
    assert(rejected(theta, ell - 1, n) == "requirement failed: ell 2 differs from the sampler's 3 pieces")
    assert(rejected(theta, ell, n + 1) == "requirement failed: nVertices 301 differs from the sampler's n = 300")
    assert(CoverageIndex.build(mrr, theta, ell, n, miniPromoters).theta == theta)
  }
}
