package repro.tipbench

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One traced interval. Spans of one job share `trace`; `parent` is the id
  * of the span that caused this one (0 for a job's root span). Times are
  * `System.nanoTime` values.
  */
final case class Span(trace: Int, id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder, written out once when the benchmark ends. */
final class Tracer {
  private val spans = ArrayBuffer[Span]()
  private var nextId = 0

  def newId(): Int = { nextId += 1; nextId }

  /** Times `f` as a span and returns its result together with the span. */
  def span[A](trace: Int, parent: Int, name: String)(f: Int => A): (A, Span) = {
    val id = newId()
    val t0 = System.nanoTime()
    val r = f(id)
    val s = Span(trace, id, parent, name, t0, System.nanoTime())
    spans += s
    (r, s)
  }

  def add(s: Span): Unit = spans += s

  def writeJsonLines(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val lines = spans.map { s =>
      Json.obj("trace" -> s.trace, "id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs)
    }
    java.nio.file.Files.write(path, lines.asJava)
  }
}

/** Cumulative Spark counters, as seen by [[SparkLayerListener]]. */
final case class SparkCounters(jobs: Long, stages: Long, tasks: Long, taskRunMs: Long,
                               shuffleBytes: Long, jobSpans: Int) {
  def minus(o: SparkCounters): SparkCounters =
    SparkCounters(jobs - o.jobs, stages - o.stages, tasks - o.tasks, taskRunMs - o.taskRunMs,
      shuffleBytes - o.shuffleBytes, jobSpans - o.jobSpans)
}

/** Observes the Spark layer from outside the program: counts jobs, stages
  * and tasks, and sums executor run time and shuffle bytes read + written.
  *
  * The listener bus delivers events asynchronously. [[drain]] runs a marker
  * job and waits until the listener sees it start; the scheduler posts every
  * event of an earlier job before the marker's, so the counters returned are
  * complete up to that point.
  */
final class SparkLayerListener(sc: SparkContext) extends SparkListener {
  private val MarkerGroup = "tipbench-marker"
  /** Local property under which `SparkContext.setJobGroup` stores the group. */
  private val JobGroupKey = "spark.jobGroup.id"
  @volatile private var jobs, stages, tasks, taskRunMs, shuffleBytes = 0L
  private val jobStartMs = new java.util.concurrent.ConcurrentHashMap[Int, java.lang.Long]()
  private val markerStages = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
  /** Finished Spark jobs as (jobId, startMs, endMs), in completion order. */
  val jobSpans = new ConcurrentLinkedQueue[(Int, Long, Long)]()
  @volatile private var marker: (CountDownLatch, SparkCounters) = (new CountDownLatch(0), null)

  private def snapshot(): SparkCounters =
    SparkCounters(jobs, stages, tasks, taskRunMs, shuffleBytes, jobSpans.size)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).map(_.getProperty(JobGroupKey)).orNull
    if (group == MarkerGroup) {
      e.stageIds.foreach(markerStages.add)
      val (latch, _) = marker
      marker = (latch, snapshot())
      latch.countDown()
    } else {
      jobs += 1
      jobStartMs.put(e.jobId, e.time)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val start = jobStartMs.remove(e.jobId)
    if (start != null) jobSpans.add((e.jobId, start.longValue, e.time))
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    if (!markerStages.contains(e.stageInfo.stageId)) stages += 1

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = if (!markerStages.contains(e.stageId)) {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      taskRunMs += m.executorRunTime
      shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Counters covering every Spark job submitted before this call. */
  def drain(): SparkCounters = {
    val latch = new CountDownLatch(1)
    marker = (latch, null)
    sc.setJobGroup(MarkerGroup, "listener drain", interruptOnCancel = false)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    require(latch.await(60, TimeUnit.SECONDS), "Spark listener did not observe the marker job")
    marker._2
  }
}
