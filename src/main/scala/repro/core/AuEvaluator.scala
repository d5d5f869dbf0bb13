package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Adoption-utility estimator over sampled MRR sets in Spark SQL.
  *
  * `dataFrame` computes the same estimate as [[CoverageIndex]]`.auOfPlan`
  * (Eqn 6, with Eqn 1's zero case) purely in Spark SQL, so the arithmetic can
  * be cross-checked against the in-memory index and against DuckDB with
  * `Oracle.assertEquivalent` (tests do exactly that).
  */
object AuEvaluator {

  /** Per-sample coverage counts as a DataFrame: join MRR membership
    * `(sample, piece, v)` against the plan's `(piece, v)` assignments, count
    * distinct covered pieces per sample. Samples covered by no piece are
    * *absent* from the result (their AU contribution is 0 by Eqn 1).
    */
  def coverageCounts(spark: SparkSession, mrr: DataFrame, plan: Plan): DataFrame = {
    import spark.implicits._
    val planDf = plan.assignments.map { case (v, j) => (j, v) }.toDF("piece", "v")
    mrr.join(planDf, Seq("piece", "v"))
      .select("sample", "piece").distinct()
      .groupBy("sample").agg(count(lit(1)).as("cnt"))
  }

  /** One-row DataFrame `(au: Double)` with the plan's AU estimate:
    * `n/θ · Σ_covered 1/(1+exp(α − β·cnt))`, for θ ≥ 1 and n ≥ 1.
    */
  def dataFrame(
      spark: SparkSession,
      mrr: DataFrame,
      plan: Plan,
      params: LogisticParams,
      nVertices: Long,
      theta: Int): DataFrame = {
    require(theta >= 1, s"theta must be at least 1, got $theta")
    require(nVertices >= 1, s"nVertices must be at least 1, got $nVertices")
    coverageCounts(spark, mrr, plan)
      .select(lit(1.0) / (lit(1.0) + exp(lit(params.alpha) - lit(params.beta) * col("cnt"))) as "p")
      .agg(coalesce(sum(col("p")), lit(0.0)).as("sumP"))
      .select((lit(nVertices.toDouble / theta) * col("sumP")).as("au"))
  }

  /** Convenience: the AU estimate as a plain double. */
  def evaluate(
      spark: SparkSession,
      mrr: DataFrame,
      plan: Plan,
      params: LogisticParams,
      nVertices: Long,
      theta: Int): Double =
    dataFrame(spark, mrr, plan, params, nVertices, theta).head().getDouble(0)
}
