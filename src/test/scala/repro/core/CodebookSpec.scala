package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CodebookSpec extends AnyFunSuite {

  test("first point becomes a codeword at itself") {
    val cb = new ErrorBoundedCodebook(0.1)
    val b = cb.quantize(Pt(1.0, 2.0))
    assert(b == 0 && cb.size == 1 && cb(0) == Pt(1.0, 2.0))
  }

  test("point within eps reuses an existing codeword") {
    val cb = new ErrorBoundedCodebook(0.1)
    cb.quantize(Pt(0, 0))
    val b = cb.quantize(Pt(0.05, 0.05))
    assert(b == 0 && cb.size == 1)
  }

  test("point beyond eps creates a new codeword") {
    val cb = new ErrorBoundedCodebook(0.1)
    cb.quantize(Pt(0, 0))
    val b = cb.quantize(Pt(0.5, 0))
    assert(b == 1 && cb.size == 2)
  }

  test("nearestWithin picks the nearest of several candidates") {
    val cb = new ErrorBoundedCodebook(1.0)
    cb.add(Pt(0, 0)); cb.add(Pt(0.5, 0))
    assert(cb.nearestWithin(Pt(0.45, 0)) == 1)
    assert(cb.nearestWithin(Pt(0.1, 0)) == 0)
    assert(cb.nearestWithin(Pt(5, 5)) == -1)
  }

  test("negative coordinates hash correctly across grid cells") {
    val cb = new ErrorBoundedCodebook(0.01)
    cb.quantize(Pt(-1.0005, -2.0005))
    assert(cb.quantize(Pt(-1.0006, -2.0006)) == 0) // same ball, maybe neighbour cell
    assert(cb.size == 1)
  }

  // Invariant (Def. 3.2): every quantized sample is within eps of its codeword.
  for (seed <- 0 until 10)
    test(s"error bound invariant holds on random streams (seed=$seed)") {
      val rng = new Random(seed)
      val eps = 0.05 + rng.nextDouble() * 0.2
      val cb = new ErrorBoundedCodebook(eps)
      for (_ <- 0 until 2000) {
        val p = Pt(rng.nextGaussian() * 2, rng.nextGaussian() * 2)
        val b = cb.quantize(p)
        assert(cb(b).dist(p) <= eps + 1e-12)
      }
      // codebook should be far smaller than the stream for a generous eps
      assert(cb.size < 2000)
    }

  test("codebook size is bounded by ball-packing of the data range") {
    val rng = new Random(7)
    val cb = new ErrorBoundedCodebook(0.5)
    for (_ <- 0 until 5000) cb.quantize(Pt(rng.nextDouble(), rng.nextDouble())) // unit square
    // balls of radius 0.5: a handful suffice for the unit square
    assert(cb.size <= 16, s"size=${cb.size}")
  }

  /** Brute force over every codeword: (index of a nearest one, its distance). */
  private def bruteNearest(cb: ErrorBoundedCodebook, p: Pt): (Int, Double) =
    if (cb.size == 0) (-1, Double.PositiveInfinity)
    else (0 until cb.size).map(i => (i, cb(i).dist(p))).minBy(_._2)

  // Cells (cx, cy) whose cx ^ cy coincide: the grid must still tell them apart.
  private val xorTwins: Seq[(String, Seq[(Long, Long)])] = Seq(
    "diagonal" -> (-40L to 40L).map(c => (c, c)),
    "mirrored" -> (for (a <- -12L to 12L; b <- -12L to 12L) yield (a, b)),
    "axes" -> (1L to 60L).flatMap(c => Seq((c, 0L), (0L, c), (-c, 0L), (0L, -c))))

  for ((name, cells) <- xorTwins)
    test(s"cells sharing cx ^ cy keep their own codewords ($name)") {
      val eps = 0.01
      val cb = new ErrorBoundedCodebook(eps)
      val centres = cells.map { case (cx, cy) => Pt((cx + 0.5) * eps, (cy + 0.5) * eps) }
      for (c <- centres) cb.add(c)
      for ((c, i) <- centres.zipWithIndex) {
        assert(cb.nearestWithin(c) == i, s"cell ${cells(i)}")
        // a point just inside the cell's corner still finds its own codeword
        assert(cb.nearestWithin(Pt(c.x - 0.45 * eps, c.y - 0.45 * eps)) == i)
      }
      // cell centres sit eps apart, so a midpoint is within eps of two of them
      val mid = Pt((centres(0).x + centres(1).x) / 2, (centres(0).y + centres(1).y) / 2)
      val got = cb.nearestWithin(mid)
      assert(got >= 0 && cb(got).dist(mid) == bruteNearest(cb, mid)._2)
    }

  // At t <= k the encoder quantizes raw coordinates: GeoLife's longitude
  // ~116.4 at eps1 = 0.001 gives |cx| ~ 117k, and southern/western
  // coordinates give negative cells of the same size.
  for ((x, y) <- Seq((116.4, 39.9), (-116.4, -39.9), (-8.61, 41.15), (179.999, -89.999)))
    test(s"far-from-origin errors quantize within eps and are found again ($x, $y)") {
      val eps = 0.001
      val cb = new ErrorBoundedCodebook(eps)
      val rng = new Random(31)
      val pts = Seq.fill(3000)(Pt(x + rng.nextGaussian() * 0.02, y + rng.nextGaussian() * 0.02))
      val ids = pts.map(cb.quantize)
      for ((p, b) <- pts.zip(ids)) assert(cb(b).dist(p) <= eps)
      for (i <- 0 until cb.size) assert(cb.nearestWithin(cb(i)) == i)
      assert(cb.size < pts.length)
    }

  // Def. 3.2 plus nearest-ness: the returned codeword is within eps and no
  // codeword is strictly nearer; a new codeword appears only when brute
  // force finds none within eps.
  for (seed <- 40 until 45)
    test(s"quantize agrees with brute force on a random stream (seed=$seed)") {
      val rng = new Random(seed)
      val eps = 0.02 + rng.nextDouble() * 0.1
      val cb = new ErrorBoundedCodebook(eps)
      for (_ <- 0 until 1500) {
        val p = Pt(rng.nextGaussian() * 0.5, rng.nextGaussian() * 0.5)
        val (_, bestD) = bruteNearest(cb, p)
        val before = cb.size
        val b = cb.quantize(p)
        if (bestD <= eps) {
          assert(cb.size == before && b < before)
          assert(cb(b).dist(p) == bestD)
        } else assert(b == before && cb.size == before + 1 && cb(b) == p)
      }
    }

  test("LongIntTable stores, replaces and finds keys across growth") {
    val t = new LongIntTable
    val keys = (0 until 5000).map(i => (i.toLong << 32) ^ (i.toLong & 0xffffffffL)) ++ Seq(Long.MinValue, -1L, 0L)
    for ((k, v) <- keys.zipWithIndex) t(k) = v
    assert(t.size == keys.distinct.length)
    for ((k, v) <- keys.zipWithIndex.reverse.distinctBy(_._1)) assert(t.get(k) == v)
    t(0L) = 7
    assert(t.get(0L) == 7 && t.get(12345678901L) == -1)
    assert(t.iterator.toMap.size == t.size)
    intercept[IllegalArgumentException](t(1L) = -1)
  }

  test("KMeans: k >= n assigns every point its own centroid region (zero loss)") {
    val pts = Array(Pt(0, 0), Pt(1, 1), Pt(2, 2))
    val (cents, assign) = KMeans.clusterPts(pts, 10)
    assert(cents.length == 3)
    for (i <- pts.indices) assert(cents(assign(i)).dist(pts(i)) < 1e-12)
  }

  test("KMeans: separates two well-separated blobs") {
    val rng = new Random(3)
    val a = Array.fill(50)(Pt(rng.nextGaussian() * 0.1, rng.nextGaussian() * 0.1))
    val b = Array.fill(50)(Pt(10 + rng.nextGaussian() * 0.1, 10 + rng.nextGaussian() * 0.1))
    val (cents, assign) = KMeans.clusterPts(a ++ b, 2)
    val ca = assign.take(50).toSet
    val cbb = assign.drop(50).toSet
    assert(ca.size == 1 && cbb.size == 1 && ca != cbb)
    assert(cents.exists(_.dist(Pt(0, 0)) < 0.2) && cents.exists(_.dist(Pt(10, 10)) < 0.2))
  }

  test("KMeans: deterministic in seed") {
    val rng = new Random(4)
    val pts = Array.fill(200)(Pt(rng.nextDouble(), rng.nextDouble()))
    val r1 = KMeans.clusterPts(pts, 8, seed = 42)
    val r2 = KMeans.clusterPts(pts, 8, seed = 42)
    assert(r1._1.toSeq == r2._1.toSeq && r1._2.toSeq == r2._2.toSeq)
  }

  test("KMeans: empty input") {
    val (c, a) = KMeans.cluster(Array.empty, 4)
    assert(c.isEmpty && a.isEmpty)
  }

  for (seed <- 20 until 26)
    test(s"KMeans never loses points and never exceeds k clusters (seed=$seed)") {
      val rng = new Random(seed)
      val pts = Array.fill(120)(Pt(rng.nextDouble() * 5, rng.nextDouble() * 5))
      val k = 1 + rng.nextInt(12)
      val (cents, assign) = KMeans.clusterPts(pts, k)
      assert(assign.length == pts.length)
      assert(cents.length <= k)
      assert(assign.forall(a => a >= 0 && a < cents.length))
    }

  test("cluster1D quantizes a 1-D stream") {
    val xs = Array(0.0, 0.1, 0.2, 10.0, 10.1, 10.2)
    val (cents, assign) = KMeans.cluster1D(xs, 2)
    assert(cents.length == 2)
    assert(assign.take(3).toSet.size == 1 && assign.drop(3).toSet.size == 1)
  }
}
