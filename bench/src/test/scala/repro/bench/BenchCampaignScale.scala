package repro.bench

import java.lang.management.ManagementFactory
import repro.core.CoverageIndex
import repro.exp.ExperimentRunner
import repro.graphgen.{Datasets, SocialGraphGen}
import repro.influence.MrrSampler
import repro.influence.MrrSampler.MrrConfig

/** Cost of one campaign's sample + index (`MrrSampler.sampleBroadcast`, then
  * `CoverageIndex.build`) as θ grows to the paper's 10⁶: tweet- and
  * lastfm-like, ℓ = 5 one-hot pieces, a 10 % promoter pool. Each graph warms
  * up with `Warmups` θ = 10⁴ campaigns; each θ then runs `Runs` campaigns of
  * distinct seeds, and the table gives the median, min and max ms.
  *
  * `peak_heap_mb` is the largest heap in use during a campaign, polled every
  * millisecond, above the heap left after a full GC before it; it includes
  * garbage not yet collected and, in local mode, the tasks' own allocations,
  * because executors share the driver's JVM. The largest of the runs is
  * shown. `entries` is the index's total list length, one collected
  * `(candidate, sample)` pair each. `walker_kib` is the reverse BFS's
  * scratch per task, two `Int[n]` arrays; `tasks` run at a time.
  */
class BenchCampaignScale extends BenchBase {

  private val Ell = 5
  private val Thetas = Seq(10000, 100000, 1000000)
  private val Runs = 3
  private val Warmups = 5

  /** The peak heap in use while `body` runs, above the post-GC baseline. */
  private def peakHeap[A](body: => A): (A, Long) = {
    val mem = ManagementFactory.getMemoryMXBean
    System.gc()
    val base = mem.getHeapMemoryUsage.getUsed
    @volatile var running = true
    @volatile var peak = base
    val poller = new Thread(() => {
      while (running) {
        peak = math.max(peak, mem.getHeapMemoryUsage.getUsed)
        Thread.sleep(1)
      }
    })
    poller.setDaemon(true)
    poller.start()
    try {
      val a = body
      peak = math.max(peak, mem.getHeapMemoryUsage.getUsed)
      (a, peak - base)
    } finally {
      running = false
      poller.join()
    }
  }

  test("campaign sample + index cost against theta") {
    val tasks = spark.sparkContext.defaultParallelism
    val rows = Seq(Datasets.tweetLike, Datasets.lastfmLike).flatMap { spec =>
      val edges = SocialGraphGen.generate(spark, spec).persist()
      edges.count()
      val promoters = SocialGraphGen.promoters(spec, 0.1)
      def campaign(theta: Int, seed: Long): (CoverageIndex, Double) = {
        val pieces = ExperimentRunner.pieceVectors(Ell, spec.numTopics, seed)
        val t0 = System.nanoTime()
        val mrr = MrrSampler.sampleBroadcast(spark, edges, spec.nVertices, pieces, MrrConfig(theta, seed))
        val idx = CoverageIndex.build(mrr, theta, Ell, spec.nVertices, promoters)
        (idx, (System.nanoTime() - t0) / 1e6)
      }
      (1 to Warmups).foreach(i => campaign(10000, 1000L + i))
      val out = Thetas.map { theta =>
        val runs = (1 to Runs).map(i => peakHeap(campaign(theta, 100L * i + theta)))
        val ms = runs.map(_._1._2).sorted
        val entries = runs.map { case ((idx, _), _) => (0 until idx.candidateCount).map(idx.coverage(_).length.toLong).sum }
        Seq(spec.name, theta.toString, f"${ms(Runs / 2)}%.0f", f"${ms.head}%.0f", f"${ms.last}%.0f",
          f"${runs.map(_._2).max / 1048576.0}%.1f", entries.sorted.apply(Runs / 2).toString,
          f"${2 * 4 * spec.nVertices / 1024.0}%.1f", tasks.toString)
      }
      edges.unpersist(blocking = true)
      out
    }
    report(s"Campaign sample + index vs theta (l=$Ell, 10 % promoters, median of $Runs)",
      Seq("graph", "theta", "ms", "min_ms", "max_ms", "peak_heap_mb", "entries", "walker_kib", "tasks"), rows)
  }
}
