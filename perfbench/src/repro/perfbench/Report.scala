package repro.perfbench

import scala.collection.mutable

/** Medians and nearest-rank percentiles over raw samples. */
object Stats {
  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    s(math.max(0, math.ceil(p * s.length).toInt - 1))
  }
}

/** What one run reports: the metrics plus the correctness gate's tally.
  * Every checked operation adds to `attempted`; a wrong output or an
  * exception adds to `failed`. */
final class Report {
  val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  var attempted = 0L
  var failed = 0L
  private val firstFailures = mutable.ArrayBuffer.empty[String]

  def put(name: String, value: Double, unit: String): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is $value")
    metrics(name) = (value, unit)
  }

  /** Counts one checked operation, failed unless `ok`. */
  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (firstFailures.length < 10) firstFailures += what
    }
  }

  def failures: Seq[String] = firstFailures.toSeq

  def json: String = {
    val ms = metrics.map { case (k, (v, u)) => s""""$k": {"value": $v, "unit": "$u"}""" }.mkString(", ")
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$ms}}"""
  }
}
