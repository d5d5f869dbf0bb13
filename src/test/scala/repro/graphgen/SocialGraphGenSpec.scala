package repro.graphgen

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class SocialGraphGenSpec extends SparkSpec {

  private lazy val spec = TestDatasets.mini
  private lazy val edges = SocialGraphGen.generate(spark, spec).cache()

  test("generation is deterministic in the spec") {
    val again = SocialGraphGen.generate(spark, spec)
    val a = edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val b = again.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(a == b)
  }

  test("vertex ids are dense in [0, n) with no self loops") {
    val rows = edges.select("src", "dst").collect()
    rows.foreach { r =>
      val (s, d) = (r.getLong(0), r.getLong(1))
      assert(s >= 0 && s < spec.nVertices)
      assert(d >= 0 && d < spec.nVertices)
      assert(s != d)
    }
  }

  test("edges are distinct pairs") {
    val n = edges.count()
    assert(edges.select("src", "dst").distinct().count() == n)
  }

  test("realized edge count is close to the target") {
    val m = edges.count()
    assert(m <= spec.targetEdges)
    assert(m >= (spec.targetEdges * 0.8).toLong, s"only $m of ${spec.targetEdges} edges")
  }

  test("probability vectors have the topic arity and stay in [0, 1]") {
    edges.select("probs").collect().foreach { r =>
      val probs = r.getSeq[Double](0)
      assert(probs.length == spec.numTopics)
      assert(probs.forall(p => p >= 0.0 && p <= 1.0))
    }
  }

  test("each edge activates between 1 and topicsPerEdge topics") {
    edges.select("probs").collect().foreach { r =>
      val nz = r.getSeq[Double](0).count(_ > 0)
      assert(nz >= 1 && nz <= spec.topicsPerEdge)
    }
  }

  test("out-degree distribution is heavy-tailed (power-law principle)") {
    val m = edges.count().toDouble
    val topShare = edges.groupBy("src").agg(count(lit(1)).as("deg"))
      .orderBy(desc("deg")).limit((spec.nVertices / 20).toInt.max(1))
      .agg(sum("deg")).head().getLong(0).toDouble
    // Pair-dedup flattens hubs on this 300-vertex mini graph; a uniform graph
    // would put ~5% of edges on the top 5% of sources — require ≥ 3× that.
    assert(topShare / m > 0.15, f"top 5%% of sources hold ${topShare / m}%.2f of edges")
  }

  test("weighted-cascade: summed in-probability per (dst, topic) is bounded") {
    // p(e|z) ≈ scale·jitter/indeg(dst) with jitter < 1.5 and ≤ topicsPerEdge
    // active topics, so Σ_in p(e|z) ≤ 1.5·wcScale per topic.
    val sums = edges
      .select(col("dst"), posexplode(col("probs")).as(Seq("z", "p")))
      .where(col("p") > 0)
      .groupBy("dst", "z").agg(sum("p").as("s"))
      .agg(max("s")).head().getDouble(0)
    assert(sums <= 1.5 * spec.wcScale + 1e-9, s"max in-probability sum $sums")
  }

  test("promoter pool is deterministic, sorted, in range, and ~10% of V") {
    val a = SocialGraphGen.promoters(spec)
    val b = SocialGraphGen.promoters(spec)
    assert(a.toSeq == b.toSeq)
    assert(a.toSeq == a.toSeq.sorted)
    assert(a.forall(v => v >= 0 && v < spec.nVertices))
    val frac = a.length.toDouble / spec.nVertices
    assert(frac > 0.05 && frac < 0.15, s"promoter fraction $frac")
  }

  test("promoter fraction parameter is honoured") {
    val half = SocialGraphGen.promoters(spec, 0.5)
    val tenth = SocialGraphGen.promoters(spec, 0.1)
    assert(half.length > tenth.length * 3)
    intercept[IllegalArgumentException](SocialGraphGen.promoters(spec, 0.0))
  }

  test("degree histogram matches DuckDB (oracle)") {
    val sparkHist = edges.groupBy("src").agg(count(lit(1)).as("deg"))
      .groupBy("deg").agg(count(lit(1)).as("cnt"))
      .select(col("deg").cast("long").as("deg"), col("cnt").cast("long").as("cnt"))
    Oracle.assertEquivalent(
      sparkHist,
      """SELECT CAST(deg AS BIGINT) AS deg, CAST(COUNT(*) AS BIGINT) AS cnt
        |FROM (SELECT src, COUNT(*) AS deg FROM edges GROUP BY src)
        |GROUP BY deg""".stripMargin,
      "edges" -> edges.select("src", "dst"))
  }

  test("dataset profiles match the paper's scales") {
    assert(Datasets.lastfmLike.nVertices == 1300 && Datasets.lastfmLike.targetEdges == 15000)
    assert(Datasets.lastfmLike.numTopics == 20)
    assert(Datasets.dblpLike.numTopics == 9)
    assert(Datasets.tweetLike.numTopics == 50)
    // Average-degree ratios preserved: dblp ~12, tweet ~1.2.
    assert(math.abs(Datasets.dblpLike.targetEdges.toDouble / Datasets.dblpLike.nVertices - 12.0) < 0.5)
    assert(math.abs(Datasets.tweetLike.targetEdges.toDouble / Datasets.tweetLike.nVertices - 1.2) < 0.1)
  }

  test("spec validation rejects nonsense") {
    intercept[IllegalArgumentException](TestDatasets.mini.copy(nVertices = 1))
    intercept[IllegalArgumentException](TestDatasets.mini.copy(topicsPerEdge = 99))
    intercept[IllegalArgumentException](TestDatasets.mini.copy(numTopics = 0))
    // limit(targetEdges.toInt) would wrap 5·10⁹ to 705 032 704.
    val tooMany = intercept[IllegalArgumentException](TestDatasets.mini.copy(targetEdges = 5000000000L))
    assert(tooMany.getMessage.contains("5000000000"), tooMany.getMessage)
    // With a NaN or non-positive scale no edge probability would leave zero.
    for (bad <- Seq(Double.NaN, 0.0, -1.0)) {
      val e = intercept[IllegalArgumentException](TestDatasets.mini.copy(wcScale = bad))
      assert(e.getMessage.contains(s"got $bad"), e.getMessage)
    }
  }
}
