package repro.core

/** Map from Long keys to non-negative Int values with unboxed keys: open
  * addressing with linear probing over a power-of-two table, grown at half
  * load; no removal. Keys are mixed with MurmurHash3's 64-bit finaliser, so
  * packed keys whose halves XOR to the same value (grid cells (c, c) and
  * (d, d), or (c, 0) and (0, c)) do not share a probe sequence. */
final class LongIntTable {
  private var keys = new Array[Long](16)
  private var vals = Array.fill(16)(-1) // -1 = empty slot
  private var used = 0

  def size: Int = used

  private def slot(k: Long): Int = {
    var h = k
    h = (h ^ (h >>> 33)) * 0xff51afd7ed558ccdL
    h = (h ^ (h >>> 33)) * 0xc4ceb9fe1a85ec53L
    var s = (h ^ (h >>> 33)).toInt & (keys.length - 1)
    while (vals(s) >= 0 && keys(s) != k) s = (s + 1) & (keys.length - 1)
    s
  }

  /** The value stored under k, or -1. */
  def get(k: Long): Int = vals(slot(k))

  /** Store v (≥ 0) under k, replacing any previous value. */
  def update(k: Long, v: Int): Unit = {
    require(v >= 0, s"LongIntTable values must be non-negative: $v")
    var s = slot(k)
    if (vals(s) < 0) {
      if (2 * (used + 1) > keys.length) { grow(); s = slot(k) }
      used += 1
    }
    keys(s) = k
    vals(s) = v
  }

  private def grow(): Unit = {
    val (ks, vs) = (keys, vals)
    keys = new Array[Long](ks.length * 2)
    vals = Array.fill(ks.length * 2)(-1)
    var i = 0
    while (i < ks.length) {
      if (vs(i) >= 0) { val s = slot(ks(i)); keys(s) = ks(i); vals(s) = vs(i) }
      i += 1
    }
  }

  /** (key, value) pairs in slot order. */
  def iterator: Iterator[(Long, Int)] =
    keys.indices.iterator.filter(vals(_) >= 0).map(i => (keys(i), vals(i)))
}
