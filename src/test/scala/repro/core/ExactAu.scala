package repro.core

import repro.influence.{Piece, TopicGraph}
import repro.influence.TopicGraph.TopicEdge
import scala.collection.mutable

/** Exact adoption utility on small instances, by live-edge world enumeration.
  *
  * For each piece, the activation probability q_j(v) = P[S_j reaches v] is
  * computed exactly by enumerating the 2^r worlds of the r edges with
  * probability strictly between 0 and 1 (deterministic edges are folded in).
  * Pieces propagate independently (§III-B), so
  *
  *   p[X_v = 1] = Σ_{T ⊆ pieces} Π_{j∈T} q_j(v) Π_{j∉T} (1−q_j(v)) · adoptionProb(|T|)
  *
  * with adoptionProb(0) = 0 per Eqn (1). Intractable beyond ~16 random edges
  * per piece — this is the ground-truth oracle for tests, not a solver.
  */
object ExactAu {

  private val MaxRandomEdges = 20

  /** Exact activation probabilities of every vertex under IC from `seeds` on
    * a homogeneous influence graph.
    */
  def activationProbs(
      edges: Seq[(Long, Long, Double)],
      vertices: Seq[Long],
      seeds: Set[Long]): Map[Long, Double] = {
    edges.foreach { case (_, _, p) =>
      require(p >= 0 && p <= 1, s"edge probability $p out of [0,1]")
    }
    if (seeds.isEmpty) return vertices.map(_ -> 0.0).toMap

    val sure = edges.filter(_._3 >= 1.0)
    val random = edges.filter(e => e._3 > 0.0 && e._3 < 1.0).toIndexedSeq
    require(random.length <= MaxRandomEdges,
      s"exact enumeration supports ≤ $MaxRandomEdges random edges, got ${random.length}")

    val acc = mutable.Map.empty[Long, Double].withDefaultValue(0.0)
    val worlds = 1 << random.length
    var w = 0
    while (w < worlds) {
      var pWorld = 1.0
      val live = mutable.ArrayBuffer.empty[(Long, Long)]
      sure.foreach { case (s, d, _) => live += ((s, d)) }
      var i = 0
      while (i < random.length) {
        val (s, d, p) = random(i)
        if ((w & (1 << i)) != 0) { pWorld *= p; live += ((s, d)) }
        else pWorld *= (1.0 - p)
        i += 1
      }
      if (pWorld > 0) {
        val adj = live.groupBy(_._1).map { case (s, es) => s -> es.map(_._2) }
        val reached = mutable.Set.empty[Long] ++ seeds
        val stack = mutable.ArrayDeque.empty[Long] ++ seeds
        while (stack.nonEmpty) {
          val v = stack.removeLast()
          adj.getOrElse(v, Nil).foreach { d =>
            if (!reached.contains(d)) { reached += d; stack.append(d) }
          }
        }
        reached.foreach(v => acc(v) += pWorld)
      }
      w += 1
    }
    vertices.map(v => v -> acc(v)).toMap
  }

  /** Exact σ(S̄) of a plan on a topic-aware graph (Eqn 1 + 2). */
  def sigma(
      edges: Seq[TopicEdge],
      vertices: Seq[Long],
      pieces: Seq[Piece],
      plan: Plan,
      params: LogisticParams): Double = {
    require(plan.ell == pieces.length,
      s"plan arity ${plan.ell} != campaign arity ${pieces.length}")

    val q: IndexedSeq[Map[Long, Double]] = pieces.toIndexedSeq.zipWithIndex.map { case (t, j) =>
      val influence = edges
        .map(e => (e.src, e.dst, TopicGraph.edgeProb(t, e.probs)))
        .filter(_._3 > 0)
      activationProbs(influence, vertices, plan.seedSets(j))
    }

    val ell = pieces.length
    vertices.iterator.map { v =>
      var pv = 0.0
      var mask = 1 // skip the empty subset: adoptionProb(0) = 0
      while (mask < (1 << ell)) {
        var pMask = 1.0
        var j = 0
        var c = 0
        while (j < ell) {
          val qj = q(j)(v)
          if ((mask & (1 << j)) != 0) { pMask *= qj; c += 1 }
          else pMask *= (1.0 - qj)
          j += 1
        }
        pv += pMask * params.adoptionProb(c)
        mask += 1
      }
      pv
    }.sum
  }
}
