package repro.perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** One timed call: `parent` is the id of the enclosing span, or -1. */
final case class Span(id: Int, parent: Int, round: Int, name: String, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Spans recorded around calls into the program's public functions.
  *
  * A disabled tracer only runs the body, so untraced rounds pay no
  * timing cost. Spans stay in memory and are written once, when the run
  * ends. `round` plays the role of the request identifier: every span of
  * one timed round (one ingest pass, or one block of queries) shares it. */
final class Tracer(val enabled: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var current = -1
  private var round = 0

  def startRound(): Int = { round += 1; round }

  def apply[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = spans.length
      spans += null
      val parent = current
      current = id
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, parent, round, name, t0, System.nanoTime())
        current = parent
      }
    }

  private def inRound(r: Int): Iterator[Span] = spans.iterator.filter(s => s != null && s.round == r)

  /** Total milliseconds spent in spans called `name` during round `r`. */
  def totalMs(r: Int, name: String): Double = inRound(r).filter(_.name == name).map(_.ms).sum

  /** Writes every span as one JSON document. */
  def write(file: File, header: Seq[(String, String)]): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file, "UTF-8")
    try {
      w.print("{")
      header.foreach { case (k, v) => w.print(s""""$k": $v, """) }
      w.println(""""spans": [""")
      val live = spans.filter(_ != null)
      live.zipWithIndex.foreach { case (s, i) =>
        w.print(s"""  {"id": ${s.id}, "parent": ${s.parent}, "round": ${s.round}, "name": "${s.name}", """ +
          s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}}""")
        w.println(if (i + 1 < live.length) "," else "")
      }
      w.println("]}")
    } finally w.close()
  }
}
