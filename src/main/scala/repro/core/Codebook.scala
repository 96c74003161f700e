package repro.core

/** Incrementally grown codebook guaranteeing ‖e − C(b)‖₂ ≤ eps for every
  * assignment (Def. 3.2 / Eq. 3). New codewords are appended whenever a
  * sample has no codeword within the bound — the paper's "additional
  * codewords are added to update C" rule for dynamic data. A uniform grid
  * hash of cell size eps makes nearest-within-eps O(1) amortised. Codewords
  * live in flat coordinate arrays; each grid cell maps to its first codeword
  * id and `next` chains the rest of the cell in insertion order. */
final class ErrorBoundedCodebook(val eps: Double) {
  require(eps > 0, "eps must be positive")
  private var xs = new Array[Double](64)
  private var ys = new Array[Double](64)
  private var next = new Array[Int](64) // next codeword id in the same cell, -1 = last
  private var n = 0
  private val grid = new LongIntTable // cell key -> first codeword id in the cell

  // Injective while |cx|, |cy| < 2^31; beyond that, cells alias, which costs
  // lookups but not correctness, since every candidate's distance is checked.
  private def key(cx: Long, cy: Long): Long = (cx << 32) ^ (cy & 0xffffffffL)
  private def cellX(p: Pt): Long = math.floor(p.x / eps).toLong
  private def cellY(p: Pt): Long = math.floor(p.y / eps).toLong

  def size: Int = n
  def apply(i: Int): Pt = {
    if (i >= n) throw new IndexOutOfBoundsException(s"codeword $i of $n")
    Pt(xs(i), ys(i))
  }
  def codewords: IndexedSeq[Pt] = IndexedSeq.tabulate(n)(apply)

  /** Index of the nearest codeword within eps, or -1 if none qualifies
    * (ties go to the one visited last). A ball of radius eps around p only
    * reaches the 3×3 cell neighbourhood. */
  def nearestWithin(p: Pt): Int = {
    val cx = cellX(p); val cy = cellY(p)
    var best = -1
    var bestD = eps
    var dx = -1L
    while (dx <= 1) {
      var dy = -1L
      while (dy <= 1) {
        var i = grid.get(key(cx + dx, cy + dy))
        while (i >= 0) {
          val ex = xs(i) - p.x; val ey = ys(i) - p.y
          val d = math.sqrt(ex * ex + ey * ey)
          if (d <= bestD) { bestD = d; best = i }
          i = next(i)
        }
        dy += 1
      }
      dx += 1
    }
    best
  }

  /** Assign p to a codeword within eps, creating one at p if needed. */
  def quantize(p: Pt): Int = {
    val i = nearestWithin(p)
    if (i >= 0) i else add(p)
  }

  def add(p: Pt): Int = {
    val i = n
    if (i == xs.length) {
      xs = java.util.Arrays.copyOf(xs, 2 * i)
      ys = java.util.Arrays.copyOf(ys, 2 * i)
      next = java.util.Arrays.copyOf(next, 2 * i)
    }
    xs(i) = p.x; ys(i) = p.y; next(i) = -1
    n += 1
    val k = key(cellX(p), cellY(p))
    var last = grid.get(k)
    if (last < 0) grid(k) = i
    else { while (next(last) >= 0) last = next(last); next(last) = i }
    i
  }
}

/** Lloyd's k-means over d-dimensional vectors — the fixed-size vector
  * quantizer used by the equal-budget experiments (Tables 2–4) and by the
  * baselines. Deterministic in (input, k, seed); empty clusters are
  * reseeded from the point farthest from its centroid. */
object KMeans {

  private def dist2(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  def cluster(vecs: Array[Array[Double]], k0: Int, iters: Int = 15, seed: Long = 7
             ): (Array[Array[Double]], Array[Int]) = {
    val n = vecs.length
    if (n == 0) return (Array.empty, Array.empty)
    val k = math.max(1, math.min(k0, n))
    val dim = vecs(0).length
    val rng = new scala.util.Random(seed)
    val cents: Array[Array[Double]] =
      rng.shuffle(vecs.indices.toVector).take(k).map(i => vecs(i).clone).toArray
    val assign = new Array[Int](n)
    java.util.Arrays.fill(assign, -1)
    var it = 0
    var changed = true
    val far = new Array[Double](n)
    while (it < iters && changed) {
      changed = false
      var i = 0
      while (i < n) {
        var best = 0; var bd = Double.MaxValue
        var c = 0
        while (c < k) { val d = dist2(vecs(i), cents(c)); if (d < bd) { bd = d; best = c }; c += 1 }
        far(i) = bd
        if (assign(i) != best) { assign(i) = best; changed = true }
        i += 1
      }
      val sums = Array.ofDim[Double](k, dim)
      val cnt = new Array[Int](k)
      i = 0
      while (i < n) {
        val c = assign(i); cnt(c) += 1
        var d = 0
        while (d < dim) { sums(c)(d) += vecs(i)(d); d += 1 }
        i += 1
      }
      var c = 0
      while (c < k) {
        if (cnt(c) > 0) {
          var d = 0
          while (d < dim) { cents(c)(d) = sums(c)(d) / cnt(c); d += 1 }
        } else {
          // Reseed an empty cluster from the worst-served point.
          var worst = 0; var wd = -1.0
          var j = 0
          while (j < n) { if (far(j) > wd) { wd = far(j); worst = j }; j += 1 }
          cents(c) = vecs(worst).clone
          far(worst) = 0.0
          changed = true
        }
        c += 1
      }
      it += 1
    }
    (cents, assign)
  }

  def clusterPts(pts: Array[Pt], k: Int, iters: Int = 15, seed: Long = 7): (Array[Pt], Array[Int]) = {
    val (cs, as) = cluster(pts.map(p => Array(p.x, p.y)), k, iters, seed)
    (cs.map(c => Pt(c(0), c(1))), as)
  }

  def cluster1D(xs: Array[Double], k: Int, iters: Int = 15, seed: Long = 7): (Array[Double], Array[Int]) = {
    val (cs, as) = cluster(xs.map(x => Array(x)), k, iters, seed)
    (cs.map(_(0)), as)
  }
}
