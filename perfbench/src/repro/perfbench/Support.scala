package repro.perfbench

import java.io.{ObjectOutputStream, OutputStream}
import java.security.MessageDigest

import scala.collection.mutable
import scala.util.control.NonFatal

object Stats {
  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def timed[A](body: => A): (Double, A) = {
    val t0 = System.nanoTime()
    val a = body
    (secondsSince(t0), a)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** SHA-256 (first 16 hex digits) of the MFG list, each group and the list
    * sorted, so equal sets have equal digests.
    */
  def digest(sets: Set[Set[Long]]): String = {
    val lines = sets.toSeq.map(_.toSeq.sorted.mkString(",")).sorted
    MessageDigest.getInstance("SHA-256").digest(lines.mkString("\n").getBytes("UTF-8"))
      .take(8).map(b => f"$b%02x").mkString
  }

  /** Size of the Java serialization of `o`, as a broadcast would ship it. */
  def serializedBytes(o: AnyRef): Long = {
    var n = 0L
    val counting = new OutputStream {
      override def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val out = new ObjectOutputStream(counting)
    out.writeObject(o)
    out.close()
    n
  }
}

/** Counts timed operations and the ones that failed: threw, hit their
  * budget, or failed a correctness check.
  */
final class Gate {
  var attempted = 0
  private val failedIds = mutable.Set.empty[Int]
  val messages = mutable.ArrayBuffer.empty[String]

  /** Runs one timed operation; a throw (budget or otherwise) fails it. */
  def op[A](body: => A): Option[(Int, A)] = {
    val id = attempted
    attempted += 1
    try Some((id, body))
    catch { case NonFatal(e) => fail(id, s"operation $id threw $e"); None }
  }

  def check(id: Int, ok: Boolean, msg: => String): Boolean = {
    if (!ok) fail(id, msg)
    ok
  }

  def fail(id: Int, msg: String): Unit = { failedIds += id; messages += msg }

  /** A wrong pinned result means every operation returned it. */
  def failAll(msg: String): Unit = { (0 until attempted).foreach(failedIds += _); messages += msg }

  def failed: Int = failedIds.size
}

/** Metric values in output order. */
final class Metrics {
  private val values = mutable.LinkedHashMap.empty[String, (Double, String, Int)]

  def put(name: String, value: Double, unit: String, samples: Int): Unit =
    values(name) = (value, unit, samples)

  /** Median of `samples`; the samples are printed too. */
  def median(name: String, unit: String, samples: Seq[Double]): Unit = {
    put(name, Stats.median(samples), unit, samples.length)
    println(f"$name samples: ${samples.map(s => f"$s%.4f").mkString(" ")}")
  }

  def print(): Unit = values.foreach { case (name, (v, unit, n)) =>
    println(f"$name%-22s $v%14.6f $unit%-6s (median of $n)")
  }

  def json: String = Json.obj(values.toSeq.map { case (name, (v, unit, _)) =>
    name -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(unit)))
  })
}

object Json {
  def str(s: String): String = "\"" + s.flatMap {
    case '"' => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  } + "\""

  /** Integral values print as integers, others with every digit. */
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a finite number: $d")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else java.lang.Double.toString(d)
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
