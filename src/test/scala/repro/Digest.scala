package repro

import java.io.{DataOutputStream, OutputStream}
import java.security.{DigestOutputStream, MessageDigest}
import repro.core.Pt

/** SHA-256 over a stream of primitive fields, so a test can pin an output
  * bit for bit (doubles are hashed by their raw bit pattern). */
final class Digest {
  private val md = MessageDigest.getInstance("SHA-256")
  private val out = new DataOutputStream(new DigestOutputStream(OutputStream.nullOutputStream(), md))

  def int(v: Int): this.type = { out.writeInt(v); this }
  def long(v: Long): this.type = { out.writeLong(v); this }
  def double(v: Double): this.type = long(java.lang.Double.doubleToRawLongBits(v))
  def pt(p: Pt): this.type = double(p.x).double(p.y)
  def ints(a: Array[Int]): this.type = { int(a.length); a.foreach(int); this }

  def hex: String = { out.flush(); md.digest().map(b => f"${b & 0xff}%02x").mkString }
}
