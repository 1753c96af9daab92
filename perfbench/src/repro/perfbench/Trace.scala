package repro.perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable

/** In-memory span recorder used by the traced run.
  *
  * Each span has a name, start and end (ns), a parent id and the bytes the
  * calling thread allocated while it was open. Spans are recorded only by
  * the benchmark, around its calls into the program's public functions;
  * they stay in memory until the run ends. Spans of one thread nest, so a
  * span's self time is its duration minus the durations of its children.
  */
final class Tracer {
  import Tracer._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open = -1

  def span[A](name: String)(body: => A): A = {
    val s = new Span(spans.length, open, name, System.nanoTime(), Mem.threadAllocated())
    spans += s
    val parent = open
    open = s.id
    try body
    finally {
      s.end = System.nanoTime()
      s.allocEnd = Mem.threadAllocated()
      open = parent
    }
  }

  def all: Seq[Span] = spans.toSeq

  private def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq

  /** Summed duration (s) of every span called `name`; 0 if none was opened. */
  def seconds(name: String): Double = named(name).map(_.nanos).sum / 1e9

  /** Summed thread allocation (MB) inside every span called `name`. */
  def allocMb(name: String): Double = named(name).map(_.allocBytes).sum / Mem.MB

  def durationsMs(name: String): Seq[Double] = named(name).map(_.nanos / 1e6)

  /** Duration minus the time covered by the span's children. */
  def selfNanos(s: Span): Long = s.nanos - spans.iterator.filter(_.parent == s.id).map(_.nanos).sum

  /** Total of the self times of `root` and all its descendants (ns). */
  def treeSelfNanos(root: Span): Long =
    selfNanos(root) + spans.iterator.filter(_.parent == root.id).map(treeSelfNanos).sum

  def roots: Seq[Span] = spans.filter(_.parent < 0).toSeq
}

object Tracer {
  final class Span(val id: Int, val parent: Int, val name: String, val start: Long, val allocStart: Long) {
    var end: Long = start
    var allocEnd: Long = allocStart
    def nanos: Long = end - start
    def allocBytes: Long = allocEnd - allocStart
  }
}

/** Heap and allocation probes, read from outside the program. */
object Mem {
  val MB: Double = 1024.0 * 1024.0

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val memory = ManagementFactory.getMemoryMXBean

  /** Bytes allocated so far by the calling thread. */
  def threadAllocated(): Long = threads.getCurrentThreadAllocatedBytes

  private def gcUsed(): Long = {
    System.gc()
    memory.getHeapMemoryUsage.getUsed
  }

  /** Heap in use after full collections, repeated (up to 5) until two agree
    * within 256 KB: the first collection can hand Spark's cleaner objects
    * whose release frees more heap shortly after.
    */
  def usedAfterGc(): Long = {
    var prev = gcUsed()
    var cur = gcUsed()
    var i = 2
    while (i < 5 && math.abs(cur - prev) > (256L << 10)) {
      Thread.sleep(20)
      prev = cur
      cur = gcUsed()
      i += 1
    }
    cur
  }
}
