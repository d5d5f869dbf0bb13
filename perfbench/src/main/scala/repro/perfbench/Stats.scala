package repro.perfbench

/** Order statistics and the result line. */
object Stats {

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Percentile with linear interpolation between closest ranks. */
  def percentile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val pos = q * (s.size - 1)
      val lo = pos.toInt
      val hi = math.min(lo + 1, s.size - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`. */
  def resultJson(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    val ms = metrics.map { m =>
      require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is not finite")
      s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
