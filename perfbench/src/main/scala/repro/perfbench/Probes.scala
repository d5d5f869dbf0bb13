package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.jdk.CollectionConverters._

/** Spark counters gathered from outside the program by a listener. */
final class SparkCounters extends SparkListener {
  private val jobs = new AtomicLong
  private val tasks = new AtomicLong
  private val busyMs = new AtomicLong
  private val resultBytes = new AtomicLong
  private val shuffleBytes = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      busyMs.addAndGet(m.executorRunTime)
      resultBytes.addAndGet(m.resultSize)
      shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }

  /** `(jobs, tasks, task busy ms, result bytes, shuffle bytes)` once every
    * posted event has been delivered.
    */
  def snapshot(sc: SparkContext): SparkCounters.Snapshot = {
    ListenerBusAccess.drain(sc, 30000L)
    SparkCounters.Snapshot(jobs.get, tasks.get, busyMs.get, resultBytes.get, shuffleBytes.get)
  }
}

object SparkCounters {
  final case class Snapshot(jobs: Long, tasks: Long, busyMs: Long, resultBytes: Long, shuffleBytes: Long) {
    def -(o: Snapshot): Snapshot =
      Snapshot(jobs - o.jobs, tasks - o.tasks, busyMs - o.busyMs, resultBytes - o.resultBytes, shuffleBytes - o.shuffleBytes)
  }
}

/** Driver JVM counters read from the management beans. */
object Jvm {

  def gcMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.iterator.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Heap in use after a full collection, in MiB. The second collection
    * also takes what Spark's cleaner released after the first.
    */
  def heapAfterGcMb(): Double = {
    System.gc()
    Thread.sleep(200)
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def uptimeS: Double = ManagementFactory.getRuntimeMXBean.getUptime / 1e3

  def maxHeapMb: Double = Runtime.getRuntime.maxMemory / (1024.0 * 1024.0)
}
