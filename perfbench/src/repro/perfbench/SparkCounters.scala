package repro.perfbench

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Spark jobs, tasks and shuffle bytes, counted by a listener the benchmark
  * registers itself (the program reports none of these).
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  private val jobs = new AtomicLong
  private val tasks = new AtomicLong
  private val shuffleBytes = new AtomicLong
  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    if (e.taskMetrics != null) shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
  }

  /** (jobs, tasks, shuffle bytes written) so far, after pending events. */
  def snapshot(): (Long, Long, Long) = {
    ListenerBusDrain(sc)
    (jobs.get, tasks.get, shuffleBytes.get)
  }
}
