package repro.perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** In-memory span and counter recorder for the traced run.
  *
  * A span is `(id, parent, request, name, start, end)`; spans opened while
  * another is open become its children, and every span opened inside
  * [[Tracer.inRequest]] carries that request's id (set-up spans carry
  * [[Tracer.NoRequest]]). Counters are recorded at the same boundaries, keyed
  * by request. Nothing is written until [[Tracer.writeJsonLines]] at the end
  * of the run. A disabled tracer runs the wrapped code and records nothing.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private val counters = mutable.Map.empty[(Int, String), Double]
  private var open: List[Int] = Nil
  private var nextId = 0
  private var request = NoRequest

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(NoParent)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, request, name, t0, System.nanoTime())
        open = open.tail
      }
    }

  /** Run one request under a root `request` span tagged with `id`. */
  def inRequest[A](id: Int)(body: => A): A = {
    request = id
    try span("request")(body)
    finally request = NoRequest
  }

  /** Add `v` to counter `name` of the current request. */
  def add(name: String, v: Double): Unit = addTo(request, name, v)

  def addTo(req: Int, name: String, v: Double): Unit =
    if (enabled) counters((req, name)) = counters.getOrElse((req, name), 0.0) + v

  /** Sum of counter `name` over all requests (set-up excluded). */
  def counterTotal(name: String): Double =
    counters.iterator.collect { case ((r, n), v) if r != NoRequest && n == name => v }.sum

  /** Total and self time (ms) of every span name, for request spans when
    * `inRequests`, else for set-up spans. Self time is a span's duration
    * minus the part of it its child spans cover.
    */
  def times(inRequests: Boolean): Map[String, SpanTime] = {
    val children = spans.groupBy(_.parent)
    spans.iterator
      .filter(s => (s.request != NoRequest) == inRequests)
      .toSeq
      .groupBy(_.name)
      .map { case (name, ss) =>
        val total = ss.iterator.map(_.durationNs).sum
        val self = ss.iterator.map(s => s.durationNs - covered(children.getOrElse(s.id, Nil).toSeq)).sum
        name -> SpanTime(ss.size, total / 1e6, self / 1e6)
      }
  }

  /** Write every span, one JSON object per line, with times relative to the
    * first span.
    */
  def writeJsonLines(file: File): Unit = {
    file.getParentFile.mkdirs()
    val origin = if (spans.isEmpty) 0L else spans.iterator.map(_.startNs).min
    val out = new PrintWriter(file, "UTF-8")
    try spans.sortBy(_.id).foreach { s =>
      out.println(
        s"""{"id":${s.id},"parent":${s.parent},"request":${s.request},"name":"${s.name}",""" +
          s""""start_us":${(s.startNs - origin) / 1000},"end_us":${(s.endNs - origin) / 1000}}""")
    }
    finally out.close()
  }

  def spanCount: Int = spans.size
}

object Tracer {
  val NoRequest: Int = -1
  val NoParent: Int = -1

  final case class Span(id: Int, parent: Int, request: Int, name: String, startNs: Long, endNs: Long) {
    def durationNs: Long = endNs - startNs
  }

  final case class SpanTime(count: Int, totalMs: Double, selfMs: Double)

  /** Length of the union of the children's intervals. */
  private def covered(cs: Seq[Span]): Long = {
    var sum = 0L
    var end = Long.MinValue
    for (c <- cs.sortBy(_.startNs)) {
      val start = math.max(c.startNs, end)
      if (c.endNs > start) sum += c.endNs - start
      end = math.max(end, c.endNs)
    }
    sum
  }
}
