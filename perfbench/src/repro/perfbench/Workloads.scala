package repro.perfbench

import repro.core._
import repro.data.{TrajDataset, TrajGen}
import repro.eval.EvalConfig
import repro.query.{Queries, Strq}
import scala.collection.mutable

/** One issued query: its latency, and its answer or the exception it threw.
  * `lookup` holds `TpiIndex.queryWithNeighbors`'s ids, in traced rounds only. */
final case class Issued(q: Strq, latNs: Long, answer: Option[Answer], error: Option[Throwable], lookup: Array[Int])

/** One pass over a stream: ingest every timestamp (with the queries due at
  * it), then size the index and decode the summary. `stepNs(t - 1)` is the
  * ingest time of timestamp t. */
final case class StreamRound(repo: Repo, decoded: Map[(Int, Int), Pt], stepNs: Array[Long], sizeBits: Long,
                             decodeNs: Long, issued: Seq[Issued], wallNs: Long, round: Int, rec: Option[Recomposed])

/** Sizes of one workload: `tiny` is for the smoke test only. */
final case class Scale(n: Int, len: Int, queries: Int)

/** The workloads. Each takes its seed from the command line, makes
  * its trajectories with `TrajGen`, and hands the program only those
  * arrays. All of them run on one thread. */
object Workloads {
  val Names: Seq[String] = Seq("ingest-porto-a", "mixed-geolife-s")

  /** Offset from the workload seed to the seed a gain must also hold on. */
  val HoldoutOffset = 7919L

  private def nowNs: Long = System.nanoTime()

  private def timed[A](body: => A): (A, Long) = { val t0 = nowNs; val a = body; (a, nowNs - t0) }

  final class Context(val seed: Long, val seconds: Double, val traced: Boolean, val tiny: Boolean,
                      val tr: Tracer, val report: Report) {
    private var deadlineNs = Long.MaxValue
    /** Starts the timed phase: rounds go on until `seconds` have passed. */
    def startClock(): Unit = deadlineNs = nowNs + (seconds * 1e9).toLong
    def timeLeft: Boolean = nowNs < deadlineNs
    /** Medians over traced rounds, filled in by the workload. */
    val layer = mutable.LinkedHashMap.empty[String, (mutable.ArrayBuffer[Double], String)]
    def addLayer(name: String, v: Double, unit: String): Unit =
      layer.getOrElseUpdate(name, (mutable.ArrayBuffer.empty[Double], unit))._1 += v
    var rounds = 0
    var queries = 0L
  }

  def run(name: String, ctx: Context): Unit = name match {
    case "ingest-porto-a" =>
      val s = if (ctx.tiny) Scale(40, 30, 1) else Scale(400, 150, 8)
      streamWorkload(ctx, s, n => TrajGen.portoLike(n, s.len, ctx.seed), EvalConfig.porto, PartitionMode.Autocorr,
        data => online(data, s.queries, ctx.seed))
    case "mixed-geolife-s" =>
      val s = if (ctx.tiny) Scale(40, 40, 2) else Scale(400, 260, 10)
      streamWorkload(ctx, s, n => TrajGen.geolifeLike(n, s.len, ctx.seed), EvalConfig.geolife, PartitionMode.Spatial,
        data => online(data, s.queries, ctx.seed))
    case other => throw new IllegalArgumentException(s"unknown workload $other; known: ${Names.mkString(", ")}")
  }

  /** `perStep` queries after every timestamp t, each at some t' ≤ t. */
  private def online(data: TrajDataset, perStep: Int, seed: Long): Int => Seq[Strq] = {
    val rng = new scala.util.Random(seed ^ 0x0711L)
    val byT = Array.tabulate(data.len + 1) { t =>
      if (t == 0) Seq.empty[Strq]
      else Seq.fill(perStep) {
        val tp = 1 + rng.nextInt(t)
        val p = data.point(rng.nextInt(data.numTrajs), tp)
        Strq(p.x, p.y, tp)
      }
    }
    t => byT.lift(t).getOrElse(Nil)
  }

  /** Generates the data `reps` times; reports the median as `setup_s`, or
    * in a traced run the generator's own time as `trajgen.ms`. */
  private def setupData(ctx: Context, reps: Int, gen: => TrajDataset, extra: TrajDataset => Unit): TrajDataset = {
    var data: TrajDataset = null
    val setups = mutable.ArrayBuffer.empty[Double]
    val gens = mutable.ArrayBuffer.empty[Double]
    for (_ <- 1 to reps) {
      data = null
      quiesce()
      val t0 = nowNs
      val (d, genNs) = timed(ctx.tr("trajgen")(gen))
      extra(d)
      setups += (nowNs - t0) / 1e9
      gens += genNs / 1e6
      data = d
    }
    if (ctx.traced) ctx.addLayer("trajgen.ms", Stats.median(gens.toSeq), "ms")
    else ctx.report.put("setup_s", Stats.median(setups.toSeq), "s")
    data
  }

  /** Issues one query; `tr` is null for an untraced query. */
  private def issue(repo: Repo, data: TrajDataset, q: Strq, tr: Tracer): Issued = {
    val t0 = nowNs
    val (ans, err) =
      try (Some(if (tr == null) Pipeline.query(repo, data, q) else Pipeline.queryTraced(repo, data, q, tr)), None)
      catch { case e: Exception => (None, Some(e)) }
    val lat = nowNs - t0
    val lookup = if (tr == null) null else tr("tpi.lookup")(repo.tpi.queryWithNeighbors(Pt(q.x, q.y), q.t))
    Issued(q, lat, ans, err, lookup)
  }

  /** Collects garbage before a timed pass, so each pass starts from the
    * same heap state and pays only for its own allocation. */
  private def quiesce(): Unit = { System.gc(); System.gc() }

  /** One pass over the whole stream into an empty repository. */
  def streamRound(data: TrajDataset, params: PpqParams, cfg: EvalConfig, queriesAt: Int => Seq[Strq],
                  tracer: Tracer, traced: Boolean): StreamRound = {
    val round = tracer.startRound()
    val tr = if (traced) tracer else null
    val repo = new Repo(params, cfg)
    val rec = if (traced) Some(new Recomposed(params, tr)) else None
    val issued = mutable.ArrayBuffer.empty[Issued]
    val stepNs = new Array[Long](data.len)
    val start = nowNs
    for (t <- 1 to data.len) {
      val pts = data.pointsAt(t)
      val t0 = nowNs
      rec match {
        case Some(r) => Pipeline.ingestStepTraced(repo, t, pts, tr, r)
        case None => Pipeline.ingestStep(repo, t, pts)
      }
      stepNs(t - 1) = nowNs - t0
      for (q <- queriesAt(t)) issued += issue(repo, data, q, tr)
    }
    // Size and decode each start from a collected heap, so a young
    // collection left over from ingest does not land in their timers at a
    // point that depends on the data.
    quiesce()
    val bits = if (traced) tr("tpi.size_bits")(repo.tpi.sizeBits) else repo.tpi.sizeBits
    quiesce()
    val (decoded, decNs) =
      timed(if (traced) tr("decoder.reconstruct")(Pipeline.decode(repo)) else Pipeline.decode(repo))
    StreamRound(repo, decoded, stepNs, bits, decNs, issued.toSeq, nowNs - start, round, rec)
  }

  /** Ground truth per query object. Keyed by identity, because hashing a
    * query would run the program's tuple-hashing code with a receiver type
    * of the benchmark's own and change how the JIT compiles it. */
  private type GroundTruth = java.util.IdentityHashMap[Strq, Set[Int]]

  /** Checks every issued query against `Queries.groundTruth` (computed here,
    * outside any timed span) and returns the ground-truth sets. */
  private def checkQueries(data: TrajDataset, cfg: EvalConfig, issued: Seq[Issued], ctx: Context,
                           cache: GroundTruth, gtNs: mutable.ArrayBuffer[Double]): Seq[Set[Int]] =
    issued.map { is =>
      var truth = cache.get(is.q)
      if (truth == null) {
        val (g, ns) = timed(Queries.groundTruth(data, is.q, cfg.gcDeg))
        gtNs += ns.toDouble
        cache.put(is.q, g)
        truth = g
      }
      ctx.report.check(is.error.isEmpty && is.answer.exists(_.ids == truth),
        is.error.map(e => s"query ${is.q} threw $e").getOrElse(s"query ${is.q} answered ${is.answer.map(_.ids)}, truth $truth"))
      truth
    }

  /** Correctness of one stream round: every point, the decoded summary,
    * the size accounting, and (traced) the re-composed encoder. Returns MAE. */
  private def checkRound(data: TrajDataset, r: StreamRound, ctx: Context): Double = {
    val mae = Pipeline.checkPoints(r.repo, data, r.decoded, ctx.report)
    val parts = Pipeline.bitComponents(r.repo.enc)
    ctx.report.check(parts.map(_._2).sum == r.repo.enc.summaryBits,
      s"bit components ${parts.mkString(",")} do not sum to summaryBits ${r.repo.enc.summaryBits}")
    r.rec.foreach { rec =>
      ctx.report.check(rec.stepMismatches == 0, s"re-composed step differs from PpqEncoder.step on ${rec.stepMismatches} points")
      ctx.report.check(rec.partMismatches == 0, s"partitioner replay differs from CodedPoint.part on ${rec.partMismatches} points")
      ctx.report.check(rec.predictorMismatches == 0, s"predictor replay differs on ${rec.predictorMismatches} outputs")
    }
    mae
  }

  /** Per-layer metrics of the ingest path, from one traced stream round. */
  private def ingestLayers(ctx: Context, r: StreamRound): Unit = {
    val tr = ctx.tr
    val ms = (name: String) => tr.totalMs(r.round, name)
    val rec = r.rec.get
    val enc = r.repo.enc
    val pts = enc.nPoints.toDouble
    val predictor = ms("predictor.ar_features") + ms("predictor.fit")
    ctx.addLayer("frontend.plan_ms", ms("frontend.plan"), "ms")
    ctx.addLayer("frontend.plan_self_ms", ms("frontend.plan") - ms("partitioner.update") - predictor, "ms")
    ctx.addLayer("frontend.commit_ms", ms("frontend.commit"), "ms")
    ctx.addLayer("partitioner.update_ms", ms("partitioner.update"), "ms")
    ctx.addLayer("partitioner.splits", rec.partitioner.splits, "count")
    ctx.addLayer("partitioner.merges", rec.partitioner.merges, "count")
    ctx.addLayer("partitioner.live_parts", rec.partitioner.numPartitions, "count")
    ctx.addLayer("partitioner.churn_ratio",
      (rec.partitioner.splits + rec.partitioner.merges).toDouble / math.max(1L, rec.liveSum), "ratio")
    ctx.addLayer("predictor.ms", predictor, "ms")
    ctx.addLayer("codebook.quantize_ms", ms("codebook.quantize"), "ms")
    ctx.addLayer("codebook.codewords", enc.codebook.size, "count")
    ctx.addLayer("codebook.hit_ratio", rec.quantizeHits.toDouble / math.max(1L, rec.quantizeCalls), "ratio")
    ctx.addLayer("cqc.encode_ms", ms("cqc.encode"), "ms")
    ctx.addLayer("cqc.refine_ms", ms("cqc.refine"), "ms")
    ctx.addLayer("cqc.bits_per_pt", enc.cqcBitsTotal / pts, "bit/pt")
    ctx.addLayer("encoder.step_ms", ms("encoder.step"), "ms")
    for ((part, bits) <- Pipeline.bitComponents(enc)) ctx.addLayer(s"encoder.bits_per_pt.$part", bits / pts, "bit/pt")
    ctx.addLayer("decoder.reconstruct_ms", ms("decoder.reconstruct"), "ms")
    ctx.addLayer("decoder.mismatches", r.repo.codes.count(c => !r.decoded.get((c.trajId, c.t)).contains(c.refined)), "count")
    ctx.addLayer("tpi.step_ms", ms("tpi.step"), "ms")
    ctx.addLayer("tpi.periods", r.repo.tpi.numPeriods, "count")
    ctx.addLayer("tpi.rebuilds", r.repo.tpi.rebuilds, "count")
    ctx.addLayer("tpi.insertions", r.repo.tpi.insertions, "count")
    ctx.addLayer("tpi.size_bits_ms", ms("tpi.size_bits"), "ms")
  }

  /** Per-layer metrics of the query path, from the queries of one traced round. */
  private def queryLayers(ctx: Context, round: Int, issued: Seq[Issued], truths: Seq[Set[Int]]): Unit = {
    val tr = ctx.tr
    val nq = math.max(1, issued.length).toDouble
    val us = (name: String) => tr.totalMs(round, name) * 1000 / nq
    val answers = issued.flatMap(_.answer)
    val cands = answers.map(_.candidates.toDouble).sum
    val found = answers.map(_.ids.size.toDouble).sum
    ctx.addLayer("query.candidates_us", us("query.candidates"), "us")
    ctx.addLayer("query.refine_us", us("query.refine"), "us")
    ctx.addLayer("query.tpq_us", us("query.tpq"), "us")
    ctx.addLayer("query.candidates_per_q", cands / nq, "count")
    ctx.addLayer("query.answers_per_q", found / nq, "count")
    ctx.addLayer("query.precision", if (cands == 0) 1.0 else found / cands, "ratio")
    ctx.addLayer("tpi.lookup_us", us("tpi.lookup"), "us")
    ctx.addLayer("tpi.lookup_ids_per_q", issued.map(_.lookup.length.toDouble).sum / nq, "count")
    val hits = issued.zip(truths).map { case (is, t) => t.count(is.lookup.toSet).toDouble }.sum
    val total = truths.map(_.size.toDouble).sum
    ctx.addLayer("tpi.lookup_recall", if (total == 0) 1.0 else hits / total, "ratio")
  }

  private def queryMetrics(ctx: Context, latNs: Seq[Double], busyNs: Double): Unit = {
    ctx.report.put("query_p50_us", Stats.percentile(latNs, 0.50) / 1e3, "us")
    ctx.report.put("query_p99_us", Stats.percentile(latNs, 0.99) / 1e3, "us")
    ctx.report.put("query_per_s", latNs.length / (busyNs / 1e9), "q/s")
  }

  private def sizeMetrics(ctx: Context, r: StreamRound, mae: Double): Unit = {
    val pts = r.repo.enc.nPoints.toDouble
    ctx.report.put("summary_bits_per_pt", r.repo.enc.summaryBits / pts, "bit/pt")
    ctx.report.put("index_bits_per_pt", r.sizeBits / pts, "bit/pt")
    ctx.report.put("mae_m", mae, "m")
  }

  /** Heap in use after a full collection, with `keep` still reachable.
    * Everything that is live by design goes in `keep`: a local the method
    * no longer reads is collected or not depending on whether the JIT has
    * compiled the method by then. */
  private def retainedHeap(ctx: Context, keep: AnyRef): Unit = {
    quiesce()
    val used = java.lang.management.ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    ctx.report.put("retained_heap_mb", used / 1e6, "MB")
    java.lang.ref.Reference.reachabilityFence(keep)
  }

  /** When tracing, odd rounds are traced and even ones are not, so the
    * trace run can compare the two; otherwise no round is traced. */
  private def tracedRound(ctx: Context, k: Int): Boolean = ctx.traced && k % 2 == 1

  private def traceOverhead(ctx: Context, walls: Seq[(Boolean, Double)]): Unit = {
    val (t, u) = walls.partition(_._1)
    ctx.addLayer("trace.overhead", Stats.median(t.map(_._2)) / Stats.median(u.map(_._2)), "ratio")
  }

  /** Untimed rounds, checks included, until at least `WarmUpRounds` have
    * run and `WarmUpSeconds` have passed, so that the JIT has compiled
    * every code path the timed rounds take before the clock starts (with a
    * single warm-up round, C2 was still compiling during the timed ones).
    * Their repositories are garbage once this returns. */
  private def warmUp(ctx: Context, data: TrajDataset, params: PpqParams, cfg: EvalConfig,
                     queriesAt: Int => Seq[Strq], gtCache: GroundTruth): Unit = {
    val until = nowNs + (WarmUpSeconds * 1e9).toLong
    var k = 0
    while (k < WarmUpRounds || nowNs < until) {
      val w = streamRound(data, params, cfg, queriesAt, ctx.tr, ctx.traced)
      checkRound(data, w, ctx)
      checkQueries(data, cfg, w.issued, ctx, gtCache, mutable.ArrayBuffer.empty)
      k += 1
    }
  }

  private val WarmUpRounds = 3
  private val WarmUpSeconds = 5.0

  /** Per item, the fastest of its times over rounds: `rounds(r)(i)` is
    * item i's time in round r. On a shared host a core runs at one of two
    * speeds up to 2x apart, switching every second or so, and the share of
    * time in the slow state drifts over minutes with the other tenants'
    * load. A median moves with that share; an item's fastest time is taken
    * in the fast state as long as one round caught it there. */
  private def fastestPerItem(rounds: Seq[Array[Double]]): Array[Double] =
    Array.tabulate(rounds.head.length)(i => rounds.iterator.map(_(i)).min)

  /** ingest-porto-a and mixed-geolife-s: each round ingests the whole
    * stream into an empty repository, serving the queries due at each t. */
  private def streamWorkload(ctx: Context, s: Scale, gen: Int => TrajDataset, cfg: EvalConfig,
                             mode: PartitionMode, queries: TrajDataset => (Int => Seq[Strq])): Unit = {
    val params = cfg.params(mode, useCqc = true)
    val data = setupData(ctx, 11, gen(s.n), _ => ())
    val queriesAt = queries(data)
    val gtCache = new GroundTruth
    val gtNs = mutable.ArrayBuffer.empty[Double]
    warmUp(ctx, data, params, cfg, queriesAt, new GroundTruth)
    ctx.startClock()

    val samples = new Samples
    var last: StreamRound = null
    var mae = 0.0
    var k = 0
    while (k < 2 || ctx.timeLeft) {
      last = null
      quiesce()
      val (r, m) = timedRound(ctx, data, params, cfg, queriesAt, tracedRound(ctx, k), gtCache, gtNs, samples)
      last = r
      mae = m
      k += 1
    }
    ctx.rounds = k
    if (ctx.traced) {
      ctx.addLayer("query.ground_truth_us", Stats.median(gtNs.toSeq) / 1e3, "us")
      traceOverhead(ctx, samples.walls.toSeq)
    } else {
      val pts = last.repo.enc.nPoints.toDouble
      ctx.report.put("ingest_pts_per_s", pts / (fastestPerItem(samples.stepNs.toSeq).sum / 1e9), "pts/s")
      ctx.report.put("decode_pts_per_s", pts / (samples.decodeNs.min / 1e9), "pts/s")
      sizeMetrics(ctx, last, mae)
      val lat = fastestPerItem(samples.latNs.toSeq)
      queryMetrics(ctx, lat.toSeq, lat.sum)
      ctx.queries = samples.latNs.map(_.length.toLong).sum
      retainedHeap(ctx, (last.repo, data, gtCache))
    }
  }

  /** Times of the timed rounds: per untraced round, each timestamp's
    * ingest time, the decode time and each query's latency; per round,
    * whether it was traced and its wall time. */
  private final class Samples {
    val stepNs = mutable.ArrayBuffer.empty[Array[Double]]
    val decodeNs = mutable.ArrayBuffer.empty[Double]
    val latNs = mutable.ArrayBuffer.empty[Array[Double]]
    val walls = mutable.ArrayBuffer.empty[(Boolean, Double)]
  }

  /** Runs, checks and records one timed round. Returns the round without
    * its decoded points and issued queries, and its MAE. A method of its
    * own, so that those large outputs are never a local of the caller,
    * where they could stay reachable when the retained heap is measured. */
  private def timedRound(ctx: Context, data: TrajDataset, params: PpqParams, cfg: EvalConfig,
                         queriesAt: Int => Seq[Strq], traced: Boolean, gtCache: GroundTruth,
                         gtNs: mutable.ArrayBuffer[Double], samples: Samples): (StreamRound, Double) = {
    val r = streamRound(data, params, cfg, queriesAt, ctx.tr, traced)
    samples.walls += ((traced, r.wallNs.toDouble))
    val mae = checkRound(data, r, ctx)
    val truths = checkQueries(data, cfg, r.issued, ctx, gtCache, gtNs)
    if (traced) {
      ingestLayers(ctx, r)
      queryLayers(ctx, r.round, r.issued, truths)
    } else {
      samples.stepNs += r.stepNs.map(_.toDouble)
      samples.decodeNs += r.decodeNs.toDouble
      samples.latNs += r.issued.map(_.latNs.toDouble).toArray
    }
    (r.copy(decoded = null, issued = Nil), mae)
  }
}
