package repro.core

/** Plan operations of the paper that only the tests use: containment
  * (Definition 2), union (Definition 3) and the baselines' single-piece plan.
  */
object PlanOps {

  implicit final class PlanRelations(private val plan: Plan) extends AnyVal {

    /** Containment per Definition 2: Sⱼ ⊆ S'ⱼ for every piece. */
    def containedIn(other: Plan): Boolean = {
      require(other.ell == plan.ell, s"plan arity mismatch: ${plan.ell} vs ${other.ell}")
      plan.seedSets.iterator.zip(other.seedSets.iterator).forall { case (a, b) => a.subsetOf(b) }
    }

    /** Union per Definition 3. */
    def union(other: Plan): Plan = {
      require(other.ell == plan.ell, s"plan arity mismatch: ${plan.ell} vs ${other.ell}")
      Plan(plan.seedSets.zip(other.seedSets).map { case (a, b) => a ++ b })
    }
  }

  /** A plan that assigns `seeds` to piece `j` only (baseline shape). */
  def singlePiece(ell: Int, j: Int, seeds: Set[Long]): Plan =
    Plan.empty(ell).iUnion(j, seeds)
}
