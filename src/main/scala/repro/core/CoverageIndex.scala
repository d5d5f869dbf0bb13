package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.{IntegerType, LongType}
import scala.collection.mutable

/** Driver-side inverted index of MRR membership, restricted to the promoter
  * pool Vp (only promoters can be seeds, so only their memberships matter for
  * coverage and AU).
  *
  * A *candidate* is one (promoter, piece) assignment; candidate index
  * `c = p * ell + piece`, where `p` is the promoter's position in the pool.
  * `coverage(c)` lists the samples whose RR set for `piece` contains the
  * promoter — selecting the candidate covers exactly those (sample, piece)
  * cells. Cells are indexed `sample * ell + piece` in an `Int`, so
  * `theta * ell` must not exceed `Int.MaxValue`.
  *
  * The index owns the scan layout Algorithm 1 and ComputeBound share, built
  * once on first use (a `takePieces` view that only IM/TIM query never builds
  * it) and read in place like `coverage(c)`: callers must not write it.
  *
  * @param theta     number of MRR samples drawn, at least 1
  * @param ell       number of viral pieces, at least 1
  * @param nVertices |V| of the underlying graph (estimator scale n/θ), ≥ 1
  * @param promoters promoter pool Vp, strictly ascending (sorted, distinct):
  *                  `candidateOf` binary-searches it
  */
final class CoverageIndex(
    val theta: Int,
    val ell: Int,
    val nVertices: Long,
    val promoters: Array[Long],
    cov: Array[Array[Int]]) {

  require(theta >= 1, s"theta must be at least 1, got $theta")
  require(ell >= 1, s"ell must be at least 1, got $ell")
  require(nVertices >= 1, s"nVertices must be at least 1, got $nVertices")
  require(theta.toLong * ell <= Int.MaxValue,
    s"theta × ell = ${theta.toLong * ell} cells exceed Int.MaxValue")
  require(cov.length == promoters.length * ell,
    s"coverage arity mismatch: ${cov.length} lists for ${promoters.length} promoters × $ell pieces")
  require((1 until promoters.length).forall(i => promoters(i - 1) < promoters(i)),
    "the promoter pool must be sorted and distinct")

  def candidateCount: Int = promoters.length * ell

  def candidateOf(promoter: Long, piece: Int): Int = {
    require(piece >= 0 && piece < ell, s"piece $piece out of [0, $ell)")
    val p = java.util.Arrays.binarySearch(promoters, promoter)
    require(p >= 0, s"vertex $promoter is not in the promoter pool")
    p * ell + piece
  }

  def promoterOf(c: Int): Long = promoters(c / ell)

  def pieceOf(c: Int): Int = c % ell

  /** Sorted sample ids covered by candidate `c`. */
  def coverage(c: Int): Array[Int] = cov(c)

  /** Scan order: RR-coverage size descending, i.e. individual influence (the
    * root τ gain is `|coverage|·envGain(0,0)`), then candidate ascending.
    * Sorted as one unboxed key `(Int.MaxValue − |coverage|) << 32 | c` each.
    */
  lazy val scanOrder: Array[Int] = {
    val keys = Array.tabulate(candidateCount)(c => (Int.MaxValue - cov(c).length).toLong << 32 | c)
    java.util.Arrays.sort(keys)
    keys.map(_.toInt)
  }

  /** The piece at each scan position. */
  lazy val scanPiece: Array[Int] = scanOrder.map(pieceOf)

  /** The scan position of each candidate. */
  lazy val scanPosition: Array[Int] = {
    val pos = new Array[Int](candidateCount)
    for (p <- scanOrder.indices) pos(scanOrder(p)) = p
    pos
  }

  /** Estimator scale n/θ (Eqn 6). */
  def scale: Double = nVertices.toDouble / theta

  /** Per-sample coverage counts (number of distinct pieces received) under a
    * candidate set. Cells covered twice (two promoters of the same piece in
    * one RR set) count once.
    */
  def coverageCounts(candidates: Iterable[Int]): Array[Int] = {
    val counts = new Array[Int](theta)
    val cell = new java.util.BitSet(theta * ell)
    for (c <- candidates) {
      val piece = pieceOf(c)
      val samples = cov(c)
      var i = 0
      while (i < samples.length) {
        val bit = samples(i) * ell + piece
        if (!cell.get(bit)) { cell.set(bit); counts(samples(i)) += 1 }
        i += 1
      }
    }
    counts
  }

  /** AU estimate of a candidate set (Eqn 6, honouring Eqn 1's zero case). A
    * count takes one of ℓ + 1 values, so the adoption probabilities are
    * tabulated once per call.
    */
  def au(candidates: Iterable[Int], params: LogisticParams): Double = {
    val counts = coverageCounts(candidates)
    val adopt = Array.tabulate(ell + 1)(params.adoptionProb)
    var s = 0.0
    var i = 0
    while (i < theta) { s += adopt(counts(i)); i += 1 }
    scale * s
  }

  /** AU estimate of a vertex-level plan. */
  def auOfPlan(plan: Plan, params: LogisticParams): Double = {
    require(plan.ell == ell, s"plan arity mismatch: ${plan.ell} vs $ell")
    au(plan.assignments.map { case (v, j) => candidateOf(v, j) }, params)
  }

  /** Vertex-level plan view of a candidate set. */
  def toPlan(candidates: Iterable[Int]): Plan =
    Plan.fromAssignments(ell, candidates.map(c => (promoterOf(c), pieceOf(c))).toSeq)

  /** Restriction to the first `newEll` pieces. Pieces propagate independently,
    * so the sub-campaign's MRR index is exactly this projection — the ℓ-sweep
    * benches sample once at the largest ℓ and restrict.
    */
  def takePieces(newEll: Int): CoverageIndex = {
    require(newEll > 0 && newEll <= ell, s"newEll must lie in [1, $ell], got $newEll")
    val newCov = Array.tabulate(promoters.length * newEll) { c =>
      cov((c / newEll) * ell + (c % newEll))
    }
    new CoverageIndex(theta, newEll, nVertices, promoters, newCov)
  }
}

object CoverageIndex {

  /** Build the index from sampler output `(sample, piece, v)`, keeping only
    * promoter memberships.
    *
    * One pass over the rows of `mrr.queryExecution.toRdd`, read in place at
    * the three columns' ordinals: each task binary-searches `v` in the sorted
    * pool and sends back one `Int` array of `(sample, piece, promoter
    * position)` triples; non-promoter rows never leave the executors. The
    * driver checks the ranges, lays the triples out per candidate with a
    * counting sort and sorts and dedupes each list in place.
    *
    * Column contract, the sampler's row format: `sample: int`, `piece: int`,
    * `v: long`, found by name. A missing column or any other type (an `int`
    * `v` included) raises an `IllegalArgumentException` naming the column and
    * both types; nothing is cast. A null value fails the job. A `sample`
    * outside `[0, theta)` or a `piece` outside `[0, ell)` on a promoter row is
    * rejected too. `promoters` may be unsorted and hold duplicates.
    */
  def build(
      mrr: DataFrame,
      theta: Int,
      ell: Int,
      nVertices: Long,
      promoters: Array[Long]): CoverageIndex = {
    val pool = promoters.sorted.distinct
    val Seq(si, pi, vi) = Seq("sample" -> IntegerType, "piece" -> IntegerType, "v" -> LongType).map { case (name, want) =>
      val got = mrr.schema.find(_.name == name).map(_.dataType)
      require(got.contains(want), s"column $name must be ${want.simpleString}, got ${got.fold("no such column")(_.simpleString)}")
      mrr.schema.fieldIndex(name)
    }
    val triples = mrr.queryExecution.toRdd
      .mapPartitions { rows =>
        val out = new mutable.ArrayBuilder.ofInt
        rows.foreach { r =>
          if (r.isNullAt(si) || r.isNullAt(pi) || r.isNullAt(vi))
            throw new IllegalArgumentException("null in an MRR row (sample, piece, v)")
          val p = java.util.Arrays.binarySearch(pool, r.getLong(vi))
          if (p >= 0) { out += r.getInt(si); out += r.getInt(pi); out += p }
        }
        Iterator.single(out.result())
      }
      .collect()

    // Counting sort: off(c) until off(c + 1) is candidate c's slice of flat.
    val nCand = pool.length * ell
    val off = new Array[Int](nCand + 1)
    for (t <- triples; i <- t.indices by 3) {
      val sample = t(i)
      val piece = t(i + 1)
      require(sample >= 0 && sample < theta, s"sample $sample out of [0, $theta)")
      require(piece >= 0 && piece < ell, s"piece $piece out of [0, $ell)")
      off(t(i + 2) * ell + piece + 1) += 1
    }
    for (c <- 0 until nCand) off(c + 1) += off(c)
    val flat = new Array[Int](off(nCand))
    val next = java.util.Arrays.copyOf(off, nCand)
    for (t <- triples; i <- t.indices by 3) {
      val c = t(i + 2) * ell + t(i + 1)
      flat(next(c)) = t(i)
      next(c) += 1
    }
    val cov = Array.tabulate(nCand) { c =>
      val from = off(c)
      val to = off(c + 1)
      if (from == to) Array.emptyIntArray
      else {
        java.util.Arrays.sort(flat, from, to)
        var end = from + 1
        for (i <- from + 1 until to if flat(i) != flat(end - 1)) { flat(end) = flat(i); end += 1 }
        java.util.Arrays.copyOfRange(flat, from, end)
      }
    }
    new CoverageIndex(theta, ell, nVertices, pool, cov)
  }
}
