package repro.graphgen

/** Graph profiles for the tests, beside the paper-scale [[Datasets]]. */
object TestDatasets {

  /** Small profile for integration tests. */
  val mini: GraphSpec = GraphSpec(
    name = "mini", nVertices = 300, targetEdges = 1800,
    numTopics = 5, topicsPerEdge = 2, wcScale = 2.0, seed = 3L)
}
