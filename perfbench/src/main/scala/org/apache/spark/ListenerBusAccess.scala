package org.apache.spark

/** Waits for Spark's listener bus to deliver every posted event, so that
  * listener counters read right after a request include all of its tasks.
  * The bus is package-private, hence this file's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext, timeoutMs: Long): Unit = sc.listenerBus.waitUntilEmpty(timeoutMs)
}
