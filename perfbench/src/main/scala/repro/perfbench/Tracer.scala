package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** Spans and counts recorded by the benchmark around its own calls into
  * each layer of the program (the program itself is not instrumented).
  *
  * A span's name is `<layer>.<call>`; the layer is what self times are
  * grouped by. Spans and counts stay in memory and are written out when the
  * run ends. With tracing off, [[span]] only runs its body.
  */
final class Tracer(var enabled: Boolean) {

  final case class Span(id: Int, parent: Int, op: Int, name: String, startNs: Long, endNs: Long) {
    def durNs: Long = endNs - startNs
    def layer: String = name.takeWhile(_ != '.')
  }
  final case class Count(op: Int, name: String, value: Double)

  val spans = ArrayBuffer.empty[Span]
  val counts = ArrayBuffer.empty[Count]
  private var stack: List[Int] = Nil
  private var nextId = 0
  /** Operation id stamped on every span and count; -1 outside timed ops. */
  var op: Int = -1

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, op, name, t0, System.nanoTime())
        stack = stack.tail
      }
    }

  def count(name: String, value: Double): Unit = if (enabled) counts += Count(op, name, value)

  def spansNamed(name: String): Seq[Span] = spans.iterator.filter(_.name == name).toSeq
  def countsNamed(name: String): Seq[Double] = counts.iterator.filter(_.name == name).map(_.value).toSeq

  /** Self time per span: its duration minus the part its children cover. */
  def selfTimesNs: Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.iterator.map { s =>
      val covered = children.getOrElse(s.id, Nil).map(c => (c.startNs max s.startNs, c.endNs min s.endNs))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var total = 0L
      var curA = Long.MinValue
      var curB = Long.MinValue
      covered.foreach { case (a, b) =>
        if (a > curB) { if (curB > curA) total += curB - curA; curA = a; curB = b }
        else curB = curB max b
      }
      if (curB > curA) total += curB - curA
      s.id -> (s.durNs - total)
    }.toMap
  }

  /** Sum of self time per layer over the spans of timed ops. */
  def selfNsByLayer: Map[String, Long] = {
    val self = selfTimesNs
    spans.iterator.filter(_.op >= 0).toSeq.groupBy(_.layer).map { case (l, ss) => l -> ss.map(s => self(s.id)).sum }
  }

  def toJson: String = {
    val sb = new StringBuilder("{\"spans\":[")
    spans.iterator.zipWithIndex.foreach { case (s, i) =>
      if (i > 0) sb.append(',')
      sb.append(s"""{"id":${s.id},"parent":${s.parent},"op":${s.op},"name":${Json.str(s.name)},"start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    }
    sb.append("],\"counts\":[")
    counts.iterator.zipWithIndex.foreach { case (c, i) =>
      if (i > 0) sb.append(',')
      sb.append(s"""{"op":${c.op},"name":${Json.str(c.name)},"value":${Json.num(c.value)}}""")
    }
    sb.append("]}").toString
  }
}

/** Just enough JSON writing for the result line and the trace file. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'           => sb.append("\\\"")
      case '\\'          => sb.append("\\\\")
      case '\n'          => sb.append("\\n")
      case c if c < ' '  => sb.append(f"\\u${c.toInt}%04x")
      case c             => sb.append(c)
    }
    sb.append('"').toString
  }

  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else java.lang.Double.toString(v)

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
