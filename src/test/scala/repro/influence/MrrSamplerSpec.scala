package repro.influence

import java.lang.ref.WeakReference
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{ArrayType, DoubleType, IntegerType, LongType, Metadata, MetadataBuilder, StructField, StructType}
import repro.SparkSpec
import repro.graphgen.{SocialGraphGen, TestDatasets}
import repro.influence.MrrSampler.MrrConfig
import repro.testkit.{ExampleGraphs, RrReference}

class MrrSamplerSpec extends SparkSpec {

  private def rows(df: DataFrame): Set[(Int, Int, Long)] =
    df.select("sample", "piece", "v").collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getLong(2))).toSet

  private lazy val exampleDf = TopicGraph.fromEdges(spark, ExampleGraphs.edges)

  /** An edge frame of nullable columns, for rows `fromEdges` cannot hold,
    * in `slices` partitions as `parallelize` cuts them, its `topics` field
    * carrying `topicsMeta` (|Z| = 2, Example 1's, by default).
    */
  private def nullableEdges(
      edges: Seq[(Any, Any, Any, Any)],
      slices: Int = 1,
      topicsMeta: Metadata = MrrSampler.topicsMetadata(2)): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(edges.map { case (s, d, ts, ps) => Row(s, d, ts, ps) }, slices),
      StructType(Seq(
        StructField("src", LongType), StructField("dst", LongType),
        StructField("topics", ArrayType(IntegerType, containsNull = true), nullable = true, topicsMeta),
        StructField("probs", ArrayType(DoubleType, containsNull = true)))))

  /** Example 1's sparse edge rows, as `fromEdges` writes them. */
  private def exampleTuples: Seq[(Any, Any, Any, Any)] =
    exampleDf.collect().toSeq.map(r => (r(0), r(1), r(2), r(3)))

  private def rejected(edges: DataFrame): String =
    intercept[IllegalArgumentException](MrrSampler.sampleBroadcast(
      spark, edges, 5, ExampleGraphs.pieces, MrrConfig(theta = 40, seed = 41L))).getMessage

  test("roots are uniform over V and deterministic") {
    val n = 1000L
    val roots = (0 until 5000).map(MrrSampler.rootOf(_, n, seed = 3L))
    assert(roots.forall(r => r >= 0 && r < n))
    assert(roots.toSet.size > 900, s"only ${roots.toSet.size} distinct roots")
    assert(roots == (0 until 5000).map(MrrSampler.rootOf(_, n, seed = 3L)))
  }

  test("edgeAlive is deterministic and respects the probability") {
    val p = 0.25
    val alive = (0 until 20000).count(s => MrrSampler.edgeAlive(s, 0, 1L, 2L, p, 7L))
    assert(math.abs(alive / 20000.0 - p) < 0.02)
    assert(MrrSampler.edgeAlive(1, 0, 1L, 2L, 0.0, 7L) == false)
    assert(MrrSampler.edgeAlive(1, 0, 1L, 2L, 1.0, 7L) == true)
  }

  test("broadcast sampler reproduces exact deterministic RR sets on Example 1") {
    val cfg = MrrConfig(theta = 60, seed = 5L)
    val out = rows(MrrSampler.sampleBroadcast(spark, exampleDf, 5, ExampleGraphs.pieces, cfg))
    (0 until cfg.theta).foreach { s =>
      val root = MrrSampler.rootOf(s, 5, cfg.seed)
      (0 until 2).foreach { j =>
        val got = out.collect { case (`s`, `j`, v) => v }
        assert(got == ExampleGraphs.rrSet(root, j), s"sample=$s piece=$j root=$root")
      }
    }
  }

  test("broadcast sampler equals the live-edge reference on a random graph") {
    val edges = SocialGraphGen.generate(spark, TestDatasets.mini)
    val pieces = Seq(Piece.oneHot(0, 5), Piece.oneHot(2, 5))
    val cfg = MrrConfig(theta = 150, seed = 9L)
    val a = RrReference.rows(edges, TestDatasets.mini.nVertices, pieces, cfg)
    val b = rows(MrrSampler.sampleBroadcast(spark, edges, TestDatasets.mini.nVertices, pieces, cfg))
    assert(a == b, s"reference=${a.size} broadcast=${b.size} symmdiff=${(a diff b) ++ (b diff a)}")
  }

  test("every (sample, piece) set contains its root") {
    val edges = SocialGraphGen.generate(spark, TestDatasets.mini)
    val pieces = Seq(Piece.oneHot(1, 5))
    val cfg = MrrConfig(theta = 100, seed = 11L)
    val out = rows(MrrSampler.sampleBroadcast(spark, edges, TestDatasets.mini.nVertices, pieces, cfg))
    (0 until cfg.theta).foreach { s =>
      val root = MrrSampler.rootOf(s, TestDatasets.mini.nVertices, cfg.seed)
      assert(out.contains((s, 0, root)))
    }
  }

  test("a zero-probability campaign yields singleton RR sets") {
    // Example 1 with a third topic that no edge carries, and a piece about it.
    val thirdTopic = TopicGraph.fromEdges(spark, ExampleGraphs.edges.map(e => e.copy(probs = e.probs :+ 0.0)))
    val pieces = Seq(Piece.oneHot(2, 3))
    val cfg = MrrConfig(theta = 30, seed = 13L)
    val out = rows(MrrSampler.sampleBroadcast(spark, thirdTopic, 5, pieces, cfg))
    assert(out.size == 30)
    out.foreach { case (s, j, v) =>
      assert(j == 0)
      assert(v == MrrSampler.rootOf(s, 5, cfg.seed))
    }
  }

  test("RR membership grows with edge probabilities") {
    // Same structure, scaled probabilities: supersets in expectation.
    val weak = TopicGraph.fromEdges(spark,
      ExampleGraphs.edges.map(e => e.copy(probs = e.probs.map(_ * 0.2))))
    val cfg = MrrConfig(theta = 300, seed = 15L)
    val strong = rows(MrrSampler.sampleBroadcast(spark, exampleDf, 5, ExampleGraphs.pieces, cfg))
    val weakRows = rows(MrrSampler.sampleBroadcast(spark, weak, 5, ExampleGraphs.pieces, cfg))
    assert(weakRows.size < strong.size)
  }

  test("RR set size distribution matches exact reachability frequencies") {
    // On the deterministic example graph the RR set of root v under piece j
    // is exactly the reverse closure; sampling only varies the root draw.
    val cfg = MrrConfig(theta = 2000, seed = 17L)
    val out = rows(MrrSampler.sampleBroadcast(spark, exampleDf, 5, ExampleGraphs.pieces, cfg))
    val expected = (0 until cfg.theta).map { s =>
      val root = MrrSampler.rootOf(s, 5, cfg.seed)
      ExampleGraphs.rrSet(root, 0).size + ExampleGraphs.rrSet(root, 1).size
    }.sum
    assert(out.size == expected)
  }

  test("config validation") {
    intercept[IllegalArgumentException](MrrConfig(theta = 0))
    val noPieces = intercept[IllegalArgumentException](
      MrrSampler.sampleBroadcast(spark, exampleDf, 5, Seq.empty, MrrConfig(theta = 10)))
    assert(noPieces.getMessage.contains("empty piece list"), noPieces.getMessage)
  }

  test("edge endpoints outside [0, n) are rejected on the driver") {
    val cfg = MrrConfig(theta = 10, seed = 19L)
    val e = intercept[IllegalArgumentException](
      MrrSampler.sampleBroadcast(spark, exampleDf, 4, ExampleGraphs.pieces, cfg))
    assert(e.getMessage.contains("4") && e.getMessage.contains("[0, 4)"), e.getMessage)
    intercept[IllegalArgumentException](
      MrrSampler.sampleBroadcast(spark, exampleDf, Int.MaxValue.toLong, ExampleGraphs.pieces, cfg))
  }

  test("a topic probability outside (0, 1] is rejected on the driver") {
    val cfg = MrrConfig(theta = 40, seed = 21L)
    for (bad <- Seq(Double.NaN, -0.1, 1.5)) {
      val edges = ExampleGraphs.edges.updated(0, ExampleGraphs.edges(0).copy(probs = Array(bad, 0.0)))
      val e = intercept[IllegalArgumentException](
        MrrSampler.sampleBroadcast(spark, TopicGraph.fromEdges(spark, edges), 5, ExampleGraphs.pieces, cfg))
      assert(e.getMessage.contains(s"edge 0→1 has p(e|z=0) = $bad"), e.getMessage)
    }
    // A listed topic must be non-zero: the table keeps only non-zero p(e|z).
    assert(rejected(nullableEdges(exampleTuples.updated(0, (0L, 1L, Seq(0), Seq(0.0))))) ==
      "edge 0→1 has p(e|z=0) = 0.0, outside (0, 1]")
    assert(rows(MrrSampler.sampleBroadcast(spark, exampleDf, 5, ExampleGraphs.pieces, cfg)) ==
      RrReference.rows(exampleDf, 5, ExampleGraphs.pieces, cfg))
  }

  test("a piece of the wrong topic arity is rejected on the driver") {
    val cfg = MrrConfig(theta = 10, seed = 23L)
    val e = intercept[IllegalArgumentException](
      MrrSampler.sampleBroadcast(spark, exampleDf, 5, Seq(Piece.oneHot(0, 3)), cfg))
    assert(e.getMessage.contains("arity"), e.getMessage)
  }

  test("alternating edge tables never reuse a stale graph") {
    val mini = SocialGraphGen.generate(spark, TestDatasets.mini)
    val weak = TopicGraph.fromEdges(spark,
      ExampleGraphs.edges.map(e => e.copy(probs = e.probs.map(_ * 0.2))))
    val miniPieces = Seq(Piece.oneHot(0, 5), Piece.oneHot(3, 5))
    val calls = Seq(
      (mini, TestDatasets.mini.nVertices, miniPieces, MrrConfig(theta = 100, seed = 25L)),
      (weak, 5L, ExampleGraphs.pieces, MrrConfig(theta = 300, seed = 27L)),
      (exampleDf, 5L, ExampleGraphs.pieces, MrrConfig(theta = 300, seed = 27L)),
      (mini, TestDatasets.mini.nVertices, miniPieces, MrrConfig(theta = 100, seed = 29L)))
    calls.foreach { case (edges, n, pieces, cfg) =>
      assert(rows(MrrSampler.sampleBroadcast(spark, edges, n, pieces, cfg)) ==
        RrReference.rows(edges, n, pieces, cfg), s"seed=${cfg.seed}")
    }
  }

  test("a lazy result stays valid after another edge table is sampled") {
    val mini = SocialGraphGen.generate(spark, TestDatasets.mini)
    val cfgA = MrrConfig(theta = 100, seed = 31L)
    val piecesA = Seq(Piece.oneHot(1, 5))
    val lazyA = MrrSampler.sampleBroadcast(spark, mini, TestDatasets.mini.nVertices, piecesA, cfgA)
    rows(MrrSampler.sampleBroadcast(spark, exampleDf, 5, ExampleGraphs.pieces, MrrConfig(theta = 50, seed = 33L)))
    System.gc()
    assert(rows(lazyA) == RrReference.rows(mini, TestDatasets.mini.nVertices, piecesA, cfgA))
  }

  test("campaigns on one edge table share its graph and each equal the reference") {
    val mini = SocialGraphGen.generate(spark, TestDatasets.mini)
    Seq(
      (Seq(Piece.oneHot(4, 5)), MrrConfig(theta = 120, seed = 35L)),
      (Seq(Piece.oneHot(2, 5), Piece.uniformMixture(5)), MrrConfig(theta = 120, seed = 37L)),
    ).foreach { case (pieces, cfg) =>
      assert(rows(MrrSampler.sampleBroadcast(spark, mini, TestDatasets.mini.nVertices, pieces, cfg)) ==
        RrReference.rows(mini, TestDatasets.mini.nVertices, pieces, cfg), s"seed=${cfg.seed}")
    }
  }

  test("a missing or mistyped edge column is rejected, naming it") {
    assert(rejected(exampleDf.drop("probs")) ==
      "requirement failed: column probs must be array<double>, got no such column")
    assert(rejected(exampleDf.withColumn("src", col("src").cast("int"))) ==
      "requirement failed: column src must be bigint, got int")
    assert(rejected(exampleDf.withColumn("dst", col("dst").cast("double"))) ==
      "requirement failed: column dst must be bigint, got double")
    assert(rejected(exampleDf.withColumn("probs", col("probs").cast("array<float>"))) ==
      "requirement failed: column probs must be array<double>, got array<float>")
  }

  test("a null edge value is rejected on the driver, naming the edge") {
    val cases = Seq[((Any, Any, Any, Any), String)](
      (null, 1L, Seq(0), Seq(1.0)) -> "edge null→1 has a null endpoint",
      (0L, null, Seq(0), Seq(1.0)) -> "edge 0→null has a null endpoint",
      (0L, 1L, Seq(0), null) -> "edge 0→1 has null probs",
      (0L, 1L, Seq(0), Seq(null)) -> "edge 0→1 has p(e|z=0) = null")
    for ((edge, msg) <- cases)
      assert(rejected(nullableEdges(exampleTuples.updated(0, edge))) == msg)
    // Nullable columns without a null are accepted.
    val cfg = MrrConfig(theta = 60, seed = 43L)
    assert(rows(MrrSampler.sampleBroadcast(spark, nullableEdges(exampleTuples), 5, ExampleGraphs.pieces, cfg)) ==
      RrReference.rows(exampleDf, 5, ExampleGraphs.pieces, cfg))
  }

  test("mixed topic arity across edges is rejected on the driver") {
    // The table has one |Z|; the non-zero entries of a 3-topic vector
    // (0.0, 1.0, 0.5) name topic 2, outside Example 1's two topics.
    val mixed = nullableEdges(exampleTuples.updated(5, (ExampleGraphs.C, ExampleGraphs.B, Seq(1, 2), Seq(1.0, 0.5))))
    val msg = rejected(mixed)
    assert(msg.contains("edge 2→1 has topic 2 outside [0, 2)"), msg)
  }

  test("an edge topic outside [0, |Z|) is rejected on the driver") {
    for (bad <- Seq(-1, 2, Int.MaxValue))
      assert(rejected(nullableEdges(exampleTuples.updated(3, (4L, 3L, Seq(0, bad).sorted, Seq(0.5, 0.5))))) ==
        s"edge 4→3 has topic $bad outside [0, 2)")
  }

  test("unsorted or repeated edge topics are rejected on the driver") {
    assert(rejected(nullableEdges(exampleTuples.updated(3, (4L, 3L, Seq(1, 0), Seq(1.0, 0.5))))) ==
      "edge 4→3 lists topic 0 after topic 1: topics must be strictly ascending")
    assert(rejected(nullableEdges(exampleTuples.updated(3, (4L, 3L, Seq(1, 1), Seq(1.0, 0.5))))) ==
      "edge 4→3 lists topic 1 after topic 1: topics must be strictly ascending")
  }

  test("the first bad edge in input order is the one rejected") {
    // One partition: an endpoint outside [0, 5) ahead of a null endpoint.
    val edges = exampleTuples.updated(1, (1L, 7L, Seq(0), Seq(1.0))).updated(3, (null, 3L, Seq(0), Seq(1.0)))
    assert(rejected(nullableEdges(edges)) == "edge 1→7 has endpoint 7 outside [0, 5)")
  }

  test("topics and probs of different lengths are rejected on the driver") {
    assert(rejected(nullableEdges(exampleTuples.updated(2, (2L, 3L, Seq(0, 1), Seq(1.0))))) ==
      "edge 2→3 has 2 topics but 1 probs")
    assert(rejected(nullableEdges(exampleTuples.updated(2, (2L, 3L, Seq(0), Seq(1.0, 0.5))))) ==
      "edge 2→3 has 1 topics but 2 probs")
  }

  test("a null topic list or topic is rejected on the driver, naming the edge") {
    assert(rejected(nullableEdges(exampleTuples.updated(1, (1L, 2L, null, Seq(1.0))))) ==
      "edge 1→2 has null topics")
    assert(rejected(nullableEdges(exampleTuples.updated(1, (1L, 2L, Seq(0, null), Seq(1.0, 0.5))))) ==
      "edge 1→2 has a null topic at position 1")
  }

  test("missing or non-positive numTopics metadata is rejected") {
    def meta(build: MetadataBuilder => MetadataBuilder): Metadata = build(new MetadataBuilder).build()
    val cases = Seq(
      Metadata.empty -> "none",
      meta(_.putLong("numTopics", 0L)) -> """{"numTopics":0}""",
      meta(_.putLong("numTopics", -2L)) -> """{"numTopics":-2}""",
      meta(_.putString("numTopics", "2")) -> """{"numTopics":"2"}""")
    for ((m, got) <- cases)
      assert(rejected(nullableEdges(exampleTuples, topicsMeta = m)) ==
        s"requirement failed: column topics must carry a positive numTopics in its metadata, got $got")
  }

  test("a dense probs table is rejected, naming the missing topics column") {
    import spark.implicits._
    val dense = ExampleGraphs.edges.map(e => (e.src, e.dst, e.probs.toSeq)).toDF("src", "dst", "probs")
    assert(rejected(dense) == "requirement failed: column topics must be array<int>, got no such column")
    assert(rejected(exampleDf.withColumn("topics", col("topics").cast("array<bigint>"))) ==
      "requirement failed: column topics must be array<int>, got array<bigint>")
  }

  test("the piece arity is checked against numTopics, even on an empty table") {
    val e = intercept[IllegalArgumentException](MrrSampler.sampleBroadcast(
      spark, nullableEdges(Seq.empty), 5, Seq(Piece.oneHot(0, 3)), MrrConfig(theta = 10, seed = 49L)))
    assert(e.getMessage == "requirement failed: topic arity mismatch: edge=2, piece=3", e.getMessage)
  }

  test("the frame registry keeps no sampling alive") {
    var frame = MrrSampler.sampleBroadcast(spark, exampleDf, 5, ExampleGraphs.pieces, MrrConfig(theta = 20, seed = 71L))
    val sampling = new WeakReference(MrrSampler.samplingOf(frame).get)
    frame = null
    // Collect without touching the registry, which would drop stale entries.
    var rounds = 0
    while (sampling.get != null && rounds < 50) { System.gc(); Thread.sleep(10); rounds += 1 }
    assert(sampling.get == null, s"the sampling outlived its frame through $rounds collections")
  }

  test("an empty edge table yields singleton RR sets") {
    val empty = nullableEdges(Seq.empty)
    val cfg = MrrConfig(theta = 30, seed = 45L)
    val out = rows(MrrSampler.sampleBroadcast(spark, empty, 5, ExampleGraphs.pieces, cfg))
    assert(out == (for (s <- 0 until 30; j <- 0 until 2) yield (s, j, MrrSampler.rootOf(s, 5, cfg.seed))).toSet)
  }

  test("edges over 8 partitions, some empty, give the reference RR sets") {
    val spread = nullableEdges(exampleTuples, slices = 8)
    val sizes = spread.queryExecution.toRdd.mapPartitions(it => Iterator.single(it.size)).collect()
    assert(sizes.toSeq == Seq(0, 1, 1, 1, 0, 1, 1, 1), sizes.toSeq)
    val cfg = MrrConfig(theta = 60, seed = 47L)
    assert(rows(MrrSampler.sampleBroadcast(spark, spread, 5, ExampleGraphs.pieces, cfg)) ==
      RrReference.rows(exampleDf, 5, ExampleGraphs.pieces, cfg))
  }
}
