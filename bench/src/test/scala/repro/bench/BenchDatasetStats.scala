package repro.bench

import repro.exp.Experiments.fmt

/** Table III: dataset statistics, generation time and MRR sample time. */
class BenchDatasetStats extends BenchBase {

  test("Table III: dataset statistics") {
    val rows = BenchConfig.datasets.map { spec =>
      val prep = prepared(spec)
      assert(prep.realizedEdges > 0.8 * spec.targetEdges,
        s"${spec.name}: only ${prep.realizedEdges} of ${spec.targetEdges} edges realized")
      assert(prep.promoters.length > 0.05 * spec.nVertices)
      Seq(spec.name, spec.nVertices.toString, prep.realizedEdges.toString,
        fmt(prep.realizedEdges.toDouble / spec.nVertices), spec.numTopics.toString,
        BenchConfig.thetaOf(spec).toString, s"${prep.generateMs} ms", s"${prep.sampleTimeMs} ms",
        fmt(prep.cachedEdgesMb))
    }
    report("Table III — dataset statistics",
      Seq("dataset", "|V|", "|E|", "avg degree", "topics", "theta", "generate", "sample time",
        "cached edges (MiB)"), rows)
  }

  test("average degrees track the paper's ratios") {
    val lastfm = prepared(BenchConfig.datasets.find(_.name == "lastfm").get)
    val dblp = prepared(BenchConfig.datasets.find(_.name == "dblp").get)
    val tweet = prepared(BenchConfig.datasets.find(_.name == "tweet").get)
    def avgDeg(p: repro.exp.Experiments.Prepared): Double =
      p.realizedEdges.toDouble / p.spec.nVertices
    // Paper: lastfm 8.7–11.5, dblp ~12, tweet ~1.2.
    assert(avgDeg(lastfm) > 8 && avgDeg(lastfm) < 13)
    assert(avgDeg(dblp) > 9 && avgDeg(dblp) < 13)
    assert(avgDeg(tweet) > 0.9 && avgDeg(tweet) < 1.3)
  }
}
