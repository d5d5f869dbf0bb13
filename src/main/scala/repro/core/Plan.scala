package repro.core

/** An assignment plan S̄ = (S₁, …, S_ℓ): one promoter seed set per viral piece.
  *
  * The plan budget |S̄| is the *sum* of the per-piece seed-set sizes
  * (Definition 1); the same promoter may be assigned to several pieces, each
  * assignment consuming one unit of budget (the paper's Vp = {V₁..V_ℓ} keeps
  * an independent candidate copy per piece).
  */
final case class Plan(seedSets: Vector[Set[Long]]) {

  /** Number of pieces ℓ. */
  def ell: Int = seedSets.length

  /** Budget consumed: Σⱼ |Sⱼ|. */
  def size: Int = seedSets.iterator.map(_.size).sum

  /** i-union per Definition 4: add seed set `s` to piece `i` only. */
  def iUnion(i: Int, s: Set[Long]): Plan = {
    require(i >= 0 && i < ell, s"piece index $i out of [0, $ell)")
    Plan(seedSets.updated(i, seedSets(i) ++ s))
  }

  /** Add a single promoter to piece `i`. */
  def add(i: Int, v: Long): Plan = iUnion(i, Set(v))

  /** All (promoter, piece) assignments in the plan. */
  def assignments: Seq[(Long, Int)] =
    for ((s, j) <- seedSets.zipWithIndex; v <- s.toSeq.sorted) yield (v, j)

  override def toString: String =
    seedSets.iterator.zipWithIndex
      .map { case (s, j) => s"S$j=${s.toSeq.sorted.mkString("{", ",", "}")}" }
      .mkString("Plan(", ", ", ")")
}

object Plan {

  /** The empty plan over `ell` pieces. */
  def empty(ell: Int): Plan = {
    require(ell > 0, s"a campaign needs at least one piece, got $ell")
    Plan(Vector.fill(ell)(Set.empty[Long]))
  }

  /** Build from (promoter, piece) assignment pairs. */
  def fromAssignments(ell: Int, as: Iterable[(Long, Int)]): Plan =
    as.foldLeft(empty(ell)) { case (p, (v, j)) => p.add(j, v) }
}
