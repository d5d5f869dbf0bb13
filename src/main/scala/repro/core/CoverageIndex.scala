package repro.core

import org.apache.spark.sql.DataFrame
import repro.influence.MrrSampler
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
    * Sorted as one unboxed key `(Int.MaxValue − |coverage|) << 32 | c` each;
    * the primitive streams here and in `scanPiece` box no candidate.
    */
  lazy val scanOrder: Array[Int] = java.util.stream.IntStream.range(0, candidateCount)
    .mapToLong(c => (Int.MaxValue - cov(c).length).toLong << 32 | c).sorted().mapToInt(_.toInt).toArray

  /** The piece at each scan position. */
  lazy val scanPiece: Array[Int] = java.util.Arrays.stream(scanOrder).map(pieceOf(_)).toArray

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

  /** Build the index of a campaign `MrrSampler.sampleBroadcast` drew,
    * keeping only promoter memberships.
    *
    * `mrr` must be a frame `sampleBroadcast` returned, or that frame persisted
    * or cached (they are the same object); any other frame, a union or
    * projection of one included, raises an `IllegalArgumentException` naming
    * `MrrSampler.sampleBroadcast`. The rows are never read: one job runs the
    * frame's reverse BFS again, sliced as the frame is, and each task
    * binary-searches every reached vertex in the sorted pool and sends back
    * one `Int` array of `(candidate, sample)` pairs, so non-promoter
    * memberships never leave the executors. The driver counts each
    * candidate's pairs, allocates its list and fills it in arrival order.
    * Tasks hold ascending runs of samples, in slice order, and a vertex is
    * reached once per (sample, piece), so every list comes out sorted and
    * distinct.
    *
    * `theta`, `ell` and `nVertices` must equal the sampler's θ, piece count
    * and n: a larger θ would silently scale every σ down, a larger ℓ add
    * empty pieces. A mismatch is rejected, naming both values. `promoters`
    * may be unsorted and hold duplicates.
    */
  def build(
      mrr: DataFrame,
      theta: Int,
      ell: Int,
      nVertices: Long,
      promoters: Array[Long]): CoverageIndex = {
    val sampling = MrrSampler.samplingOf(mrr).getOrElse(throw new IllegalArgumentException(
      "build indexes only a frame MrrSampler.sampleBroadcast returned (or that frame persisted or cached)"))
    require(theta == sampling.theta, s"theta $theta differs from the sampler's ${sampling.theta}")
    require(ell == sampling.ell, s"ell $ell differs from the sampler's ${sampling.ell} pieces")
    require(nVertices == sampling.n, s"nVertices $nVertices differs from the sampler's n = ${sampling.n}")
    val pool = {
      val sorted = promoters.clone()
      java.util.Arrays.sort(sorted)
      var end = math.min(1, sorted.length)
      for (i <- 1 until sorted.length if sorted(i) != sorted(end - 1)) { sorted(end) = sorted(i); end += 1 }
      java.util.Arrays.copyOf(sorted, end)
    }
    val pairs = sampling.runJob(mrr.sparkSession.sparkContext) { (samples, walker) =>
      val out = new mutable.ArrayBuilder.ofInt
      samples.foreach { sample =>
        var piece = 0
        while (piece < ell) {
          val size = walker.walk(sample, piece)
          var i = 0
          while (i < size) {
            val p = java.util.Arrays.binarySearch(pool, walker.reached(i).toLong)
            if (p >= 0) { out += p * ell + piece; out += sample }
            i += 1
          }
          piece += 1
        }
      }
      out.result()
    }

    // Count each candidate's samples, then fill its list in arrival order.
    val count = new Array[Int](pool.length * ell)
    for (t <- pairs; i <- t.indices by 2) count(t(i)) += 1
    val cov = count.map(k => if (k == 0) Array.emptyIntArray else new Array[Int](k))
    val next = new Array[Int](count.length)
    for (t <- pairs; i <- t.indices by 2) {
      val c = t(i)
      cov(c)(next(c)) = t(i + 1)
      next(c) += 1
    }
    new CoverageIndex(theta, ell, nVertices, pool, cov)
  }
}
