package repro.graphgen

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.{Join, Range => RangeScan}
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.influence.MrrSampler
import repro.util.HashRng

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
    assert(edges.schema("topics").metadata.getLong(MrrSampler.NumTopicsKey) == spec.numTopics)
    edges.select("topics", "probs").collect().foreach { r =>
      val topics = r.getSeq[Int](0)
      val probs = r.getSeq[Double](1)
      assert(topics.length == probs.length)
      assert(topics.forall(z => z >= 0 && z < spec.numTopics))
      assert(topics.zip(topics.drop(1)).forall { case (a, b) => a < b }, s"topics $topics not strictly ascending")
      assert(probs.forall(p => p >= 0.0 && p <= 1.0))
    }
  }

  test("each edge activates between 1 and topicsPerEdge topics") {
    edges.select("probs").collect().foreach { r =>
      val nz = r.getSeq[Double](0).count(_ > 0)
      assert(nz >= 1 && nz <= spec.topicsPerEdge)
    }
  }

  /** Each edge's `(topics, probs)` against the non-zero entries of the dense
    * vector the same `HashRng` draws fill, `if (p > probs(z)) probs(z) = p`.
    */
  private def assertSparseOfDense(g: GraphSpec, table: DataFrame): Unit = {
    val indeg = table.groupBy("dst").count().collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val rows = table.select("src", "dst", "topics", "probs").collect()
    assert(rows.length > 0.8 * g.targetEdges)
    rows.foreach { r =>
      val (s, d) = (r.getLong(0), r.getLong(1))
      val dense = new Array[Double](g.numTopics)
      for (t <- 0 until g.topicsPerEdge) {
        val z = HashRng.uniformLong(g.numTopics, HashRng.mix(g.seed, SocialGraphGen.TagTopic, s, d), t.toLong).toInt
        val jitter = 0.5 + HashRng.uniform(g.seed, SocialGraphGen.TagJitter, s, d, t.toLong)
        val p = math.min(1.0, g.wcScale * jitter / indeg(d).toDouble)
        if (p > dense(z)) dense(z) = p
      }
      val nonZero = dense.indices.filter(dense(_) != 0.0)
      assert(r.getSeq[Int](2) == nonZero, s"edge $s→$d")
      assert(r.getSeq[Double](3).map(java.lang.Double.doubleToLongBits) ==
        nonZero.map(z => java.lang.Double.doubleToLongBits(dense(z))), s"edge $s→$d")
    }
  }

  test("sparse topics are exactly the non-zero entries of the dense draw") {
    assertSparseOfDense(spec, edges)
    val tweet = SocialGraphGen.generate(spark, Datasets.tweetLike).persist()
    try assertSparseOfDense(Datasets.tweetLike, tweet) finally tweet.unpersist()
  }

  /** SHA-256 of `generate`'s rows for `g` as `src dst topics probs-bits`
    * lines, sorted by edge: pins every row and every p(e|z) bit.
    */
  private def rowDigest(g: GraphSpec): String = {
    val lines = SocialGraphGen.generate(spark, g).select("src", "dst", "topics", "probs").collect().map { r =>
      val bits = r.getSeq[Double](3).map(p => java.lang.Long.toHexString(java.lang.Double.doubleToLongBits(p)))
      (r.getLong(0), r.getLong(1), s"${r.getLong(0)} ${r.getLong(1)} ${r.getSeq[Int](2).mkString(",")} ${bits.mkString(",")}")
    }.sortBy(l => (l._1, l._2)).map(_._3)
    val md = java.security.MessageDigest.getInstance("SHA-256")
    lines.foreach(l => md.update(s"$l\n".getBytes("UTF-8")))
    md.digest().map(b => f"$b%02x").mkString
  }

  test("generated rows are pinned by a digest of the sorted edge rows") {
    assert(rowDigest(spec) == "a5b74a6397e51b221b90f0f71605bb81948b7da724ffef861bec6904541ae606")
    assert(rowDigest(Datasets.lastfmLike) == "21a1d93cc5ee135226e5d9cbca76cc74fe68e8dd58d08c6fc4c6ffaa9370f921")
  }

  test("generate plans one Range scan and no join at both thresholds") {
    val key = "spark.sql.autoBroadcastJoinThreshold"
    val before = spark.conf.get(key)
    try for (threshold <- Seq("-1", "10485760")) {
      spark.conf.set(key, threshold)
      val plan = SocialGraphGen.generate(spark, spec).queryExecution.optimizedPlan
      assert(plan.collect { case r: RangeScan => r }.length == 1, s"threshold $threshold:\n$plan")
      assert(plan.collect { case j: Join => j }.isEmpty, s"threshold $threshold:\n$plan")
    } finally spark.conf.set(key, before)
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
      .select(col("dst"), explode(arrays_zip(col("topics"), col("probs"))).as("e"))
      .select(col("dst"), col("e.topics").as("z"), col("e.probs").as("p"))
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
