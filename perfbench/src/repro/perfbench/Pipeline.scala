package repro.perfbench

import repro.core._
import repro.data.TrajDataset
import repro.eval.EvalConfig
import repro.index.TpiIndex
import repro.query.{Queries, Strq}
import scala.collection.mutable

/** A queryable repository: the encoder's summary, the TPI over refined
  * points, and the refined points keyed by (trajId, t) that queries read. */
final class Repo(val params: PpqParams, val cfg: EvalConfig) {
  val enc = new PpqEncoder(params)
  val tpi = new TpiIndex(cfg.epsS, cfg.gcDeg, Pipeline.EpsC, Pipeline.EpsD)
  val recon = mutable.HashMap.empty[(Int, Int), Pt]
  val codes = mutable.ArrayBuffer.empty[CodedPoint]
  var lastT = 0
}

/** The encoder step re-composed from its public parts, each call wrapped
  * in a span: `PredictiveFrontend.plan`, `ErrorBoundedCodebook.quantize`,
  * `Cqc.encode`/`refine` and `commit`. Alongside it, the partitioner and
  * the predictor are replayed standalone on the same inputs, so their
  * share of `plan` can be timed without tracing inside the program.
  * Every step is compared with what `PpqEncoder.step` returned. */
final class Recomposed(params: PpqParams, tr: Tracer) {
  private val frontend = new PredictiveFrontend(params)
  private val codebook = new ErrorBoundedCodebook(params.eps1)
  private val qt = params.gs.map(g => new CoordinateQuadtree(Cqc.sideFor(params.eps1, g)))
  val partitioner = new IncrementalPartitioner(params.epsP, params.partGrowth, params.seed)
  private val rawHist = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Pt]]

  var quantizeCalls = 0L
  var quantizeHits = 0L
  /** Σ_t live partitions after each replayed update. */
  var liveSum = 0L
  /** Points whose (part, b, cqcBits, cqcLen, refined) differ from `PpqEncoder.step`. */
  var stepMismatches = 0L
  /** Points the standalone partitioner put in another partition than `CodedPoint.part`. */
  var partMismatches = 0L
  /** Partition coefficients or predictions the predictor replay did not reproduce. */
  var predictorMismatches = 0L

  def step(t: Int, pts: Array[(Int, Pt)], expected: Array[CodedPoint]): Unit = {
    val n = pts.length
    val plan = tr("frontend.plan")(frontend.plan(t, pts))

    val vecs: Array[Array[Double]] = params.mode match {
      case PartitionMode.Autocorr =>
        tr("predictor.ar_features")(pts.map { case (id, _) =>
          Predictor.arFeatures(rawHist.getOrElse(id, mutable.ArrayBuffer.empty[Pt]), params.k, params.arWindow)
        })
      case _ => pts.map { case (_, p) => Array(p.x, p.y) }
    }
    val replayed =
      if (params.mode == PartitionMode.Single) new Array[Int](n)
      else tr("partitioner.update")(partitioner.update(pts.map(_._1), vecs))
    liveSum += partitioner.numPartitions

    if (params.predict) tr("predictor.fit") {
      for ((p, idxs) <- pts.indices.groupBy(plan.assign(_))) {
        val ready = idxs.filter(i => frontend.histOf(pts(i)._1).length == params.k)
        val coeffs =
          if (ready.nonEmpty)
            Predictor.fit(ready.map(i => frontend.histOf(pts(i)._1)).toArray, ready.map(i => pts(i)._2).toArray, params.k)
          else new Array[Double](params.k)
        if (!java.util.Arrays.equals(coeffs, plan.coeffs(p))) predictorMismatches += 1
      }
      var i = 0
      while (i < n) {
        val h = frontend.histOf(pts(i)._1)
        val pred = if (h.length == params.k) Predictor.predict(plan.coeffs(plan.assign(i)), h) else Pt(0.0, 0.0)
        if (pred != plan.preds(i)) predictorMismatches += 1
        i += 1
      }
    }

    val bs = new Array[Int](n)
    val recons = new Array[Pt](n)
    tr("codebook.quantize") {
      var i = 0
      while (i < n) {
        val before = codebook.size
        bs(i) = codebook.quantize(pts(i)._2 - plan.preds(i))
        if (codebook.size == before) quantizeHits += 1
        recons(i) = plan.preds(i) + codebook(bs(i))
        i += 1
      }
    }
    quantizeCalls += n
    val (cqcs, refined) = qt match {
      case Some(q) =>
        val g = params.gs.get
        val c = tr("cqc.encode")(Array.tabulate(n)(i => Cqc.encode(pts(i)._2, recons(i), params.eps1, g, q)))
        (c, tr("cqc.refine")(Array.tabulate(n)(i => Cqc.refine(recons(i), c(i), params.eps1, g, q))))
      case None => (Array.fill(n)(CqcCode(0L, 0)), recons)
    }
    tr("frontend.commit")(frontend.commit(pts, recons))

    var i = 0
    while (i < n) {
      val (id, rp) = pts(i)
      val rb = rawHist.getOrElseUpdate(id, mutable.ArrayBuffer.empty)
      rb += rp
      if (rb.length > params.arWindow + params.k + 2) rb.remove(0)
      val e = expected(i)
      if (e.trajId != id || e.part != plan.assign(i) || e.b != bs(i) || e.cqcBits != cqcs(i).bits ||
          e.cqcLen != cqcs(i).len || e.refined != refined(i)) stepMismatches += 1
      if (replayed(i) != e.part) partMismatches += 1
      i += 1
    }
  }
}

/** One query's outputs: the candidate count, the exact STRQ answer and
  * the number of points its TPQ read. */
final case class Answer(candidates: Int, ids: Set[Int], tpqPoints: Int)

object Pipeline {
  /** TPI thresholds ε_c and ε_d. */
  val EpsC = 0.5
  val EpsD = 0.5
  /** TPQ path length l. */
  val TpqLen = 20

  /** One timestamp of ingest: encode, index the refined points, and
    * publish them to queries. Untraced runs take this path, which calls
    * the program and nothing else. */
  def ingestStep(repo: Repo, t: Int, pts: Array[(Int, Pt)]): Unit = {
    val coded = repo.enc.step(t, pts)
    repo.tpi.step(t, coded.map(c => (c.trajId, c.refined)))
    store(repo, t, coded)
  }

  /** `ingestStep` with a span around each call; the re-composed step runs
    * too and is checked against the encoder. */
  def ingestStepTraced(repo: Repo, t: Int, pts: Array[(Int, Pt)], tr: Tracer, rec: Recomposed): Unit = {
    val coded = tr("encoder.step")(repo.enc.step(t, pts))
    rec.step(t, pts, coded)
    tr("tpi.step")(repo.tpi.step(t, coded.map(c => (c.trajId, c.refined))))
    tr("ingest.store")(store(repo, t, coded))
  }

  private def store(repo: Repo, t: Int, coded: Array[CodedPoint]): Unit = {
    coded.foreach(c => repo.recon((c.trajId, c.t)) = c.refined)
    repo.codes ++= coded
    repo.lastT = t
  }

  /** Exact STRQ (local search over refined points, then refinement against
    * raw points), followed by a TPQ over the answer ids. */
  def query(repo: Repo, data: TrajDataset, q: Strq): Answer = {
    val gc = repo.cfg.gcDeg
    val cands = Queries.localSearchCandidates(repo.recon, data, q, gc, repo.cfg.cqcRadiusDeg)
    val ids = Queries.refineWithRaw(cands, data, q, gc)
    Answer(cands.size, ids, tpq(repo, ids, q.t))
  }

  /** `query` with a span around each call. */
  def queryTraced(repo: Repo, data: TrajDataset, q: Strq, tr: Tracer): Answer = {
    val gc = repo.cfg.gcDeg
    val cands = tr("query.candidates")(
      Queries.localSearchCandidates(repo.recon, data, q, gc, repo.cfg.cqcRadiusDeg))
    val ids = tr("query.refine")(Queries.refineWithRaw(cands, data, q, gc))
    val read = tr("query.tpq")(tpq(repo, ids, q.t))
    Answer(cands.size, ids, read)
  }

  /** TPQ (Def. 5.3): the refined sub-trajectory of every id over
    * (t, t + l], up to the latest ingested timestamp. Returns the number
    * of points read; a missing point throws. */
  def tpq(repo: Repo, ids: Set[Int], t: Int): Int = {
    val end = math.min(repo.lastT, t + TpqLen)
    var read = 0
    for (id <- ids) {
      val path = new Array[Pt](math.max(0, end - t))
      var s = t + 1
      while (s <= end) { path(s - t - 1) = repo.recon((id, s)); s += 1 }
      read += path.length
    }
    read
  }

  def decode(repo: Repo): Map[(Int, Int), Pt] =
    PpqDecoder.reconstruct(repo.params, repo.enc.codebook.codewords, repo.enc.steps.toSeq, repo.codes.toSeq)

  /** Checks every ingested point: the codebook bound ‖raw − recon‖ ≤ ε₁,
    * Lemma 3's ‖raw − refined‖ ≤ (√2/2)·g_s, and that decoding the summary
    * gives back the encoder's refined point. Returns the MAE in metres. */
  def checkPoints(repo: Repo, data: TrajDataset, decoded: Map[(Int, Int), Pt], report: Report): Double = {
    val eps = repo.params.eps1 + 1e-12
    val lemma3 = repo.params.gs.map(g => math.sqrt(2.0) / 2.0 * g + 1e-12).getOrElse(eps)
    var sum = 0.0
    for (c <- repo.codes) {
      val raw = data.point(c.trajId, c.t)
      val err = raw.dist(c.refined)
      sum += Geo.toMeters(err)
      report.check(raw.dist(c.recon) <= eps && err <= lemma3 && decoded.get((c.trajId, c.t)).contains(c.refined),
        s"point (${c.trajId}, ${c.t}) breaks a bound or decodes differently")
    }
    report.check(decoded.size == repo.codes.length, s"decoder returned ${decoded.size} of ${repo.codes.length} points")
    sum / repo.codes.length
  }

  /** The summary's five size components (bits), which must add up to
    * `PpqEncoder.summaryBits`. */
  def bitComponents(enc: PpqEncoder): Seq[(String, Long)] = {
    val k = enc.params.k
    Seq(
      "coeffs" -> enc.steps.iterator.map(_.coeffs.size.toLong * k * 64).sum,
      "ids" -> enc.nPoints * MathUtil.ceilLog2(math.max(enc.codebook.size, 2)),
      "cqc" -> enc.cqcBitsTotal,
      "codebook" -> enc.codebook.size.toLong * 2 * 64,
      "assign" -> enc.steps.iterator.map(s => s.assign.size.toLong * MathUtil.ceilLog2(math.max(s.numParts, 2))).sum)
  }
}
