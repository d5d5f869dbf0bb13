package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.exp.Experiments.Prepared
import repro.graphgen.{Datasets, GraphSpec}
import scala.collection.mutable

/** Shared bench configuration (DESIGN.md §3 substitutions).
  *
  * θ is scaled down from the paper's 10⁶ (estimator error ≪ method gaps at
  * our graph sizes), and every bench reuses one ℓ=5 sampling pass per dataset
  * via piece-prefix restriction. BAB/BAB-P terminate at the paper's 1 % gap
  * with a 60-call bound cap as a safety valve (both fixed in
  * `Experiments.runAll`).
  */
object BenchConfig {
  val MaxEll = 5

  def thetaOf(spec: GraphSpec): Int = if (spec.name == "lastfm") 20000 else 10000

  val datasets: Seq[GraphSpec] = Datasets.all
}

/** One prepared dataset per JVM, shared across bench suites. */
object PrepCache {
  private val cache = mutable.Map.empty[String, Prepared]

  def get(spark: org.apache.spark.sql.SparkSession, spec: GraphSpec): Prepared =
    synchronized {
      cache.getOrElseUpdate(spec.name,
        Experiments.prepare(spark, spec, ell = BenchConfig.MaxEll,
          theta = BenchConfig.thetaOf(spec)))
    }
}

/** Base trait for bench suites: SparkSpec plus result-table plumbing. */
trait BenchBase extends SparkSpec {

  def prepared(spec: GraphSpec): Prepared = PrepCache.get(spark, spec)

  /** Print a result table with a grep-friendly marker for EXPERIMENTS.md. */
  def report(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    println(s"\n==== BENCH: $title ====")
    print(Experiments.markdownTable(header, rows))
    println(s"==== END: $title ====\n")
  }
}
