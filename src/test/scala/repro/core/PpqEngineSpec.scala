package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Digest
import repro.data.{TrajDataset, TrajGen}
import scala.util.Random

class PpqEngineSpec extends AnyFunSuite {

  private def smallData = TrajGen.portoLike(n = 40, len = 30, seed = 5)

  private def runEncoder(params: PpqParams) = {
    val data = smallData
    val enc = new PpqEncoder(params)
    val codes = (1 to data.len).flatMap(t => enc.step(t, data.pointsAt(t)))
    (data, enc, codes)
  }

  val allModes: Seq[(String, PpqParams)] = Seq(
    "PPQ-A" -> PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05),
    "PPQ-A-basic" -> PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05, gs = None),
    "PPQ-S" -> PpqParams(mode = PartitionMode.Spatial, epsP = 0.05),
    "PPQ-S-basic" -> PpqParams(mode = PartitionMode.Spatial, epsP = 0.05, gs = None),
    "E-PQ" -> PpqParams(mode = PartitionMode.Single, gs = None),
    "Q-trajectory" -> PpqParams(mode = PartitionMode.Single, predict = false, gs = None))

  // Def. 3.2: codebook reconstruction within eps1 of the raw point, always.
  for ((name, params) <- allModes)
    test(s"$name: codebook reconstruction error <= eps1 for every point") {
      val (data, _, codes) = runEncoder(params)
      for (cp <- codes) {
        val raw = data.point(cp.trajId, cp.t)
        assert(cp.recon.dist(raw) <= params.eps1 + 1e-12,
          s"t=${cp.t} err=${Geo.toMeters(cp.recon.dist(raw))}m")
      }
    }

  // Lemma 3: with CQC the refined error is bounded by (sqrt2/2)*gs.
  for ((name, params) <- allModes.filter(_._2.gs.isDefined))
    test(s"$name: refined (CQC) error <= (sqrt2/2)*gs") {
      val (data, _, codes) = runEncoder(params)
      val bound = math.sqrt(2.0) / 2.0 * params.gs.get + 1e-12
      for (cp <- codes) {
        val raw = data.point(cp.trajId, cp.t)
        assert(cp.refined.dist(raw) <= bound)
      }
    }

  for ((name, params) <- allModes)
    test(s"$name: decoder reproduces the encoder's reconstruction exactly") {
      val (_, enc, codes) = runEncoder(params)
      val decoded = PpqDecoder.reconstruct(params, enc.codebook.codewords, enc.steps.toSeq, codes)
      assert(decoded.size == codes.size)
      for (cp <- codes) {
        val d = decoded((cp.trajId, cp.t))
        assert(d == cp.refined, s"decoded $d != encoded ${cp.refined} at (${cp.trajId},${cp.t})")
      }
    }

  test("prediction shrinks the codebook vs no prediction (the paper's core claim)") {
    val (_, encPred, _) = runEncoder(PpqParams(mode = PartitionMode.Single, gs = None))
    val (_, encRaw, _) = runEncoder(PpqParams(mode = PartitionMode.Single, predict = false, gs = None))
    assert(encPred.codebook.size < encRaw.codebook.size,
      s"E-PQ ${encPred.codebook.size} vs Q-trajectory ${encRaw.codebook.size}")
  }

  test("partitioned prediction (PPQ) does not exceed E-PQ codebook size by much") {
    val (_, encPpq, _) = runEncoder(PpqParams(mode = PartitionMode.Spatial, epsP = 0.05, gs = None))
    val (_, encEpq, _) = runEncoder(PpqParams(mode = PartitionMode.Single, gs = None))
    // partitioning narrows the error range; codebook should not blow up
    assert(encPpq.codebook.size <= encEpq.codebook.size * 2)
  }

  test("compression ratio is > 1 and summary bits are consistent") {
    val (data, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Spatial, epsP = 0.05))
    assert(enc.nPoints == data.numPoints)
    assert(enc.summaryBits > 0)
    assert(enc.compressionRatio > 1.0, s"ratio=${enc.compressionRatio}")
    assert(enc.cqcBitsTotal == codes.map(_.cqcLen.toLong).sum)
  }

  test("steps record one summary per timestamp with coefficients for every used partition") {
    val (data, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Spatial, epsP = 0.05))
    assert(enc.steps.map(_.t).toSeq == (1 to data.len))
    for (cp <- codes) {
      val s = enc.steps(cp.t - 1)
      assert(s.coeffs.contains(cp.part))
      assert(s.assign(cp.trajId) == cp.part)
    }
  }

  test("t <= k points are quantized with zero prediction (Alg. 1)") {
    val params = PpqParams(mode = PartitionMode.Single, gs = None)
    val data = smallData
    val enc = new PpqEncoder(params)
    val codes1 = enc.step(1, data.pointsAt(1))
    // with zero prediction the codeword IS (approximately) the raw point
    for (cp <- codes1) {
      val raw = data.point(cp.trajId, 1)
      assert(enc.codebook(cp.b).dist(raw) <= params.eps1 + 1e-12)
    }
  }

  test("Q-trajectory mode (predict=false) stores raw-space codewords") {
    val (data, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Single, predict = false, gs = None))
    for (cp <- codes.take(100)) {
      val raw = data.point(cp.trajId, cp.t)
      assert(enc.codebook(cp.b).dist(raw) <= 0.001 + 1e-12)
    }
    // raw-space codewords live inside the dataset bbox neighbourhood
    for (w <- enc.codebook.codewords)
      assert(data.bbox.x0 - 0.01 <= w.x && w.x <= data.bbox.x1 + 0.01)
  }

  test("deterministic: two identical runs produce identical codebooks and codes") {
    val params = PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05)
    val (_, e1, c1) = runEncoder(params)
    val (_, e2, c2) = runEncoder(params)
    assert(e1.codebook.codewords == e2.codebook.codewords)
    assert(c1 == c2)
  }

  test("autocorr mode produces more than one partition on heterogeneous motion") {
    val data = TrajGen.geolifeLike(n = 30, len = 40, seed = 11)
    val enc = new PpqEncoder(PpqParams(mode = PartitionMode.Autocorr, epsP = 0.01, gs = None))
    for (t <- 1 to data.len) enc.step(t, data.pointsAt(t))
    assert(enc.steps.map(_.numParts).max > 1)
  }

  test("spatial mode tracks moving partitions without unbounded growth") {
    val data = smallData
    val enc = new PpqEncoder(PpqParams(mode = PartitionMode.Spatial, epsP = 0.05, gs = None))
    for (t <- 1 to data.len) enc.step(t, data.pointsAt(t))
    assert(enc.numPartitions <= data.numTrajs)
    assert(enc.steps.last.numParts >= 1)
  }
  /** Every field the encoder emits: each CodedPoint, each StepSummary (with
    * coefficients by partition and assignments by trajectory id), the
    * codewords and the summary size. */
  private def encoderDigest(data: TrajDataset, params: PpqParams): String = {
    val enc = new PpqEncoder(params)
    val d = new Digest
    for (t <- 1 to data.len; cp <- enc.step(t, data.pointsAt(t)))
      d.int(cp.trajId).int(cp.t).int(cp.part).int(cp.b).long(cp.cqcBits).int(cp.cqcLen).pt(cp.recon).pt(cp.refined)
    for (s <- enc.steps) {
      d.int(s.t).int(s.numParts)
      for ((p, c) <- s.coeffs.toSeq.sortBy(_._1)) { d.int(p); c.foreach(d.double) }
      for ((id, p) <- s.assign.toSeq.sortBy(_._1)) d.int(id).int(p)
    }
    enc.codebook.codewords.foreach(d.pt)
    d.long(enc.summaryBits).hex
  }

  // Pinned from the encoder as it was before the codebook grid and the
  // frontend's grouping moved to primitive keys: the summary must not move.
  private val pinnedEncoderDigests = Seq(
    ("porto", PartitionMode.Spatial,
      "68bb60d74f062c99cde3184f5dee5744fed6f7f62a37ffa88885712e7ce9edf6"),
    ("porto", PartitionMode.Autocorr,
      "891f257669d8d85360ec70cd446dc2a9e07a6930e7133f093dab8495b3e389d9"),
    ("porto", PartitionMode.Single,
      "3f289fe7db8efb54da7d828bcf2f5766793a4bbfaedecc9e5c23cbb32e447cae"),
    ("geolife", PartitionMode.Spatial,
      "18e1a15edf672ff7eb59eb3f3eee682ae16db1bf9b025591887a457599d8e8e2"),
    ("geolife", PartitionMode.Autocorr,
      "eacdba4b1e85cdf4390401cde96dbdeaf6e7b5eb3696c851d36f7544b8d8ef5b"),
    ("geolife", PartitionMode.Single,
      "620930534269d3a9729c27ce076060b36484e84deceb0531331be4742942c126"))

  for ((dataset, mode, pinned) <- pinnedEncoderDigests)
    test(s"encoder output on $dataset-like data in $mode mode is bit-identical to the pinned digest") {
      val data = if (dataset == "porto") smallData else TrajGen.geolifeLike(n = 30, len = 40, seed = 11)
      assert(encoderDigest(data, PpqParams(mode = mode, epsP = 0.05)) == pinned)
    }
}
