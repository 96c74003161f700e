package repro.perfbench

import java.io.File

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny] [--out <dir>]
  * }}}
  *
  * With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
  * per-layer metrics and the tracing overhead; the spans of a traced run
  * go to `<out>/trace-<workload>-<seed>.json`. The last line of standard
  * output is one JSON object: correct, attempted, failed and metrics. */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = need("workload")
    val seed = need("seed").toLong
    val seconds = need("seconds").toDouble
    val traced = need("trace") match {
      case "0" => false
      case "1" => true
      case other => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $other")
    }
    val tiny = opts.getOrElse("scale", "full") match {
      case "full" => false
      case "tiny" => true
      case other => throw new IllegalArgumentException(s"--scale must be full or tiny, not $other")
    }
    require(seconds > 0, "--seconds must be positive")
    require(Workloads.Names.contains(workload), s"unknown workload $workload; known: ${Workloads.Names.mkString(", ")}")

    val tracer = new Tracer(traced)
    val report = new Report
    val ctx = new Workloads.Context(seed, seconds, traced, tiny, tracer, report)
    val t0 = System.nanoTime()
    Workloads.run(workload, ctx)
    val wall = (System.nanoTime() - t0) / 1e9
    if (traced)
      for ((name, (values, unit)) <- ctx.layer) report.put(name, Stats.median(values.toSeq), unit)

    val holdout = seed + Workloads.HoldoutOffset
    if (traced) {
      val file = new File(opts.getOrElse("out", "."), s"trace-$workload-$seed.json")
      tracer.write(file, Seq("workload" -> s""""$workload"""", "seed" -> seed.toString, "holdout_seed" -> holdout.toString))
      println(s"spans written to $file")
    }
    println(s"workload=$workload seed=$seed holdout_seed=$holdout trace=${if (traced) 1 else 0} " +
      s"rounds=${ctx.rounds} timed_queries=${ctx.queries} wall_s=${"%.1f".format(wall)}")
    for ((name, (value, unit)) <- report.metrics) println(f"  $name%-32s $value%16.4f $unit")
    println(f"  ${"fail_rate"}%-32s ${report.failed.toDouble / math.max(1L, report.attempted)}%16.4f share " +
      s"(${report.failed} of ${report.attempted})")
    report.failures.foreach(f => println(s"  FAILED: $f"))
    println(report.json)
  }
}
