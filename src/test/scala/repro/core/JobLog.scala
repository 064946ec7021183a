package repro.core

import java.util.concurrent.{ConcurrentLinkedQueue, Semaphore, TimeUnit}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** Logs the Spark jobs that `body` starts on `caller`'s SparkContext: for
  * each, the caller session's `spark.sql.shuffle.partitions` and
  * `spark.sql.adaptive.enabled` as the listener reads them at the job's
  * start.
  *
  * The listener bus delivers events asynchronously, so a marker job before
  * and after `body` delimits the log: the scheduler posts every event of an
  * earlier job before the marker's.
  */
final class JobLog private (caller: SparkSession) extends SparkListener {
  private val MarkerGroup = "joblog-marker"
  private val markerSeen = new Semaphore(0)
  @volatile private var markers = 0
  private val confs = new ConcurrentLinkedQueue[(String, String)]()

  override def onJobStart(e: SparkListenerJobStart): Unit =
    if (Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull == MarkerGroup) {
      markers += 1
      markerSeen.release()
    } else if (markers == 1)
      confs.add((caller.conf.get("spark.sql.shuffle.partitions"), caller.conf.get("spark.sql.adaptive.enabled")))

  private def mark(): Unit = {
    val sc = caller.sparkContext
    sc.setJobGroup(MarkerGroup, "job log marker", interruptOnCancel = false)
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    require(markerSeen.tryAcquire(60, TimeUnit.SECONDS), "listener did not observe the marker job")
  }
}

object JobLog {
  def apply[A](caller: SparkSession)(body: => A): (A, Seq[(String, String)]) = {
    val log = new JobLog(caller)
    caller.sparkContext.addSparkListener(log)
    try {
      log.mark()
      val a = body
      log.mark()
      (a, log.confs.asScala.toSeq)
    } finally caller.sparkContext.removeSparkListener(log)
  }
}
