package repro.sim

import repro.core.{LogisticParams, Plan}
import repro.influence.{Piece, TopicGraph}
import repro.influence.TopicGraph.TopicEdge
import repro.util.HashRng

/** Monte-Carlo *forward* Independent-Cascade simulation of a full assignment
  * plan — an estimator of σ(S̄) that shares no code path with the MRR/RR
  * machinery, used to cross-validate it.
  *
  * Each round simulates every piece's cascade from its seed set on its own
  * influence graph (independent coins per round × piece × edge), counts the
  * distinct pieces reaching each user, and averages Eqn (1) adoption
  * probabilities. Coins come from [[HashRng]] with a tag disjoint from the
  * sampler's, so the two estimators are statistically independent. It runs
  * on the driver over collected edges: a test-time reference, not a solver.
  */
object ForwardSimulator {

  private val TagCoin = 301L

  /** One cascade: vertices activated by `seeds` in round `round` of piece `piece`. */
  private def cascade(
      adj: Map[Long, Array[(Long, Double)]],
      seeds: Set[Long],
      round: Long,
      piece: Int,
      seed: Long): collection.Set[Long] = {
    val active = collection.mutable.Set.empty[Long] ++ seeds
    val frontier = collection.mutable.ArrayDeque.empty[Long] ++ seeds
    while (frontier.nonEmpty) {
      val v = frontier.removeLast()
      adj.getOrElse(v, Array.empty).foreach { case (dst, p) =>
        if (!active.contains(dst) &&
            HashRng.uniform(seed, TagCoin, round, piece.toLong, v, dst) < p) {
          active += dst
          frontier.append(dst)
        }
      }
    }
    active
  }

  private def adjacencies(
      edges: Seq[TopicEdge],
      pieces: Seq[Piece]): IndexedSeq[Map[Long, Array[(Long, Double)]]] =
    pieces.toIndexedSeq.map { t =>
      edges
        .map(e => (e.src, (e.dst, TopicGraph.edgeProb(t, e.probs))))
        .filter(_._2._2 > 0)
        .groupBy(_._1)
        .map { case (s, es) => s -> es.map(_._2).toArray }
    }

  /** Driver-side estimate of σ(S̄) over `rounds` Monte-Carlo rounds. */
  def sigma(
      edges: Seq[TopicEdge],
      pieces: Seq[Piece],
      plan: Plan,
      params: LogisticParams,
      rounds: Int,
      seed: Long = 99L): Double = {
    require(plan.ell == pieces.length,
      s"plan arity ${plan.ell} != campaign arity ${pieces.length}")
    require(rounds > 0, s"rounds must be positive, got $rounds")
    val adj = adjacencies(edges, pieces)
    var total = 0.0
    var r = 0L
    while (r < rounds) {
      val reachedBy: IndexedSeq[collection.Set[Long]] =
        pieces.indices.map(j => cascade(adj(j), plan.seedSets(j), r, j, seed))
      val touched = reachedBy.foldLeft(Set.empty[Long])(_ ++ _)
      total += touched.iterator.map { v =>
        params.adoptionProb(reachedBy.count(_.contains(v)))
      }.sum
      r += 1
    }
    total / rounds
  }
}
