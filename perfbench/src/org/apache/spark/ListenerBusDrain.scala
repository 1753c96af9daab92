package org.apache.spark

/** Waits until every posted Spark event has reached its listeners, so a
  * listener's counts are complete when an action returns. The listener bus
  * is package-private to Spark, hence this file's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
