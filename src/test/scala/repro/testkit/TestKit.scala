package repro.testkit

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types.{IntegerType, LongType}
import repro.core.CoverageIndex
import repro.influence.{MrrSampler, Piece, TopicGraph}
import repro.influence.MrrSampler.MrrConfig
import repro.influence.TopicGraph.TopicEdge
import repro.util.HashRng
import scala.collection.mutable

/** The paper's running example (Figure 1): five users a..e (ids 0..4), two
  * topics, six deterministic edges — three on topic z₁, three on topic z₂ —
  * arranged so that under piece t₁=(1,0) seed {a} reaches {a,b,c,d} and under
  * piece t₂=(0,1) seed {e} reaches {e,d,c,b}, exactly the indicator pattern
  * Example 1 reports. With α=3, β=1 the optimal budget-2 plan {{a},{e}} has
  * σ = 0.12 + 3·0.27 + 0.12 ≈ 1.05.
  */
object ExampleGraphs {
  val A = 0L; val B = 1L; val C = 2L; val D = 3L; val E = 4L

  val vertices: Seq[Long] = Seq(A, B, C, D, E)

  val edges: Seq[TopicEdge] = Seq(
    TopicEdge(A, B, Array(1.0, 0.0)),
    TopicEdge(B, C, Array(1.0, 0.0)),
    TopicEdge(C, D, Array(1.0, 0.0)),
    TopicEdge(E, D, Array(0.0, 1.0)),
    TopicEdge(D, C, Array(0.0, 1.0)),
    TopicEdge(C, B, Array(0.0, 1.0)),
  )

  val t1: Piece = Piece.oneHot(0, 2)
  val t2: Piece = Piece.oneHot(1, 2)
  val pieces: Seq[Piece] = Seq(t1, t2)

  /** Deterministic reverse reachability: who reaches `root` under piece `j`. */
  def rrSet(root: Long, piece: Int): Set[Long] = {
    val adj = edges.filter(_.probs(piece) >= 1.0).groupBy(_.dst)
    RrReference.reverseClosure(root)(v => adj.getOrElse(v, Nil).map(_.src))
  }
}

/** Exact driver-side MRR reference: for every (sample, piece) world, the
  * reverse closure of the sample's root over that world's live edges — the
  * rows `MrrSampler` must produce, with no sampling engine in between. It
  * extends [[ExampleGraphs.rrSet]] to graphs whose edges have probabilities.
  */
object RrReference {

  /** Everything that reaches `root` when `in(v)` lists the live in-neighbours of `v`. */
  def reverseClosure(root: Long)(in: Long => Seq[Long]): Set[Long] = {
    var reached = Set(root)
    var frontier = List(root)
    while (frontier.nonEmpty) {
      val next = frontier.flatMap(in).distinct.filterNot(reached)
      reached ++= next
      frontier = next
    }
    reached
  }

  /** `(sample, piece, v)` rows of the MRR sets `cfg` draws on `edges`. */
  def rows(edges: DataFrame, n: Long, pieces: Seq[Piece], cfg: MrrConfig): Set[(Int, Int, Long)] = {
    val byDst = TopicGraph.collectEdges(edges).groupBy(_.dst)
    (for {
      sample <- 0 until cfg.theta
      root = MrrSampler.rootOf(sample, n, cfg.seed)
      (t, piece) <- pieces.zipWithIndex
      v <- reverseClosure(root) { dst =>
        byDst.getOrElse(dst, Nil).collect {
          case e if MrrSampler.edgeAlive(sample, piece, e.src, dst, TopicGraph.edgeProb(t, e.probs), cfg.seed) => e.src
        }
      }
    } yield (sample, piece, v)).toSet
  }
}

/** The coverage index read from `(sample, piece, v)` rows, the reference
  * `CoverageIndex.build`'s fused job is checked against: it reads any frame
  * of the sampler's row format, not only the sampler's own.
  */
object RowIndexReference {

  /** One job over the rows of `mrr.queryExecution.toRdd`, read in place at
    * the three columns' ordinals: each task binary-searches `v` in the sorted
    * distinct pool and sends back one `Int` array of `(sample, piece,
    * promoter position)` triples. The driver checks the ranges, lays the
    * triples out per candidate with a counting sort and sorts and dedupes
    * each list.
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
    val pool = promoters.distinct.sorted
    val Seq(si, pi, vi) = Seq("sample" -> IntegerType, "piece" -> IntegerType, "v" -> LongType).map { case (name, want) =>
      val got = mrr.schema.find(_.name == name).map(_.dataType)
      require(got.contains(want), s"column $name must be ${want.simpleString}, got ${got.fold("no such column")(_.simpleString)}")
      mrr.schema.fieldIndex(name)
    }
    val triples = mrr.sparkSession.sparkContext.runJob(mrr.queryExecution.toRdd,
      (rows: Iterator[InternalRow]) => {
        val out = new mutable.ArrayBuilder.ofInt
        rows.foreach { r =>
          if (r.isNullAt(si) || r.isNullAt(pi) || r.isNullAt(vi))
            throw new IllegalArgumentException("null in an MRR row (sample, piece, v)")
          val p = java.util.Arrays.binarySearch(pool, r.getLong(vi))
          if (p >= 0) { out += r.getInt(si); out += r.getInt(pi); out += p }
        }
        out.result()
      })
    val lists = Array.fill(pool.length * ell)(mutable.SortedSet.empty[Int])
    for (t <- triples; i <- t.indices by 3) {
      val sample = t(i)
      val piece = t(i + 1)
      require(sample >= 0 && sample < theta, s"sample $sample out of [0, $theta)")
      require(piece >= 0 && piece < ell, s"piece $piece out of [0, $ell)")
      lists(t(i + 2) * ell + piece) += sample
    }
    new CoverageIndex(theta, ell, nVertices, pool, lists.map(_.toArray))
  }
}

/** Synthetic coverage indices for algorithm unit tests that need no Spark:
  * each (promoter, piece) candidate covers each sample independently with
  * probability `density`, all hash-deterministic in `seed`.
  */
object SyntheticIndex {

  def random(
      theta: Int,
      ell: Int,
      nPromoters: Int,
      nVertices: Long,
      density: Double,
      seed: Long): CoverageIndex = {
    val promoters = Array.tabulate(nPromoters)(_.toLong)
    val cov = Array.tabulate(nPromoters * ell) { c =>
      (0 until theta).filter(s => HashRng.uniform(seed, c.toLong, s.toLong) < density).toArray
    }
    new CoverageIndex(theta, ell, nVertices, promoters, cov)
  }

  /** Index with explicitly given coverage lists (hand-built examples). */
  def explicit(
      theta: Int,
      ell: Int,
      nVertices: Long,
      promoters: Array[Long],
      lists: Map[(Long, Int), Seq[Int]]): CoverageIndex = {
    val cov = Array.tabulate(promoters.length * ell) { c =>
      lists.getOrElse((promoters(c / ell), c % ell), Seq.empty).toArray.distinct.sorted
    }
    new CoverageIndex(theta, ell, nVertices, promoters, cov)
  }
}
