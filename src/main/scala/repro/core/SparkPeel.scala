package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.functions._
import repro.bipartite.PeelState

/** Batch-peeling building blocks shared by the dataflow engines
  * ([[SparkReceipt]] CD rounds and [[SparkParB]] rounds): one round
  * ([[peelRound]]) is one wedge-join update query over the live edge set,
  * after which the peeled vertices are filtered out of it ([[LiveEdges]]).
  */
object SparkPeel {

  /** The live edges filter at most this many drops before a re-base ([[LiveEdges]]). */
  val CheckpointEvery = 8

  /** Runs `body` on the live edges of `edgesIn` (see [[LiveEdges]]) in a
    * session of its own (`spark.newSession()`: same SparkContext and cache,
    * own SQL conf) with narrow shuffles and adaptive execution off: peeling
    * runs many small iterative jobs, for which wide shuffles and re-planning
    * are pure overhead. The caller's session conf is never touched, so
    * several runs can share one session, concurrently too. Afterwards
    * releases what the live edges hold.
    */
  def withLiveEdges[A](spark: SparkSession, edgesIn: DataFrame)(body: LiveEdges => A): A = {
    val session = spark.newSession()
    session.conf.set("spark.sql.shuffle.partitions", "8")
    session.conf.set("spark.sql.adaptive.enabled", "false")
    // Queries plan under the session of their leftmost input, so the input
    // is rebound to the engine's session before anything is built on it.
    val uv = edgesIn.select("u", "v")
    val live = new LiveEdges(BipartiteDF.canonical(session.createDataFrame(uv.rdd, uv.schema)))
    try body(live) finally live.release()
  }

  /** Rows whose `u` is one of `us`. */
  private def hasU(us: Array[Int]) = col("u").isin(us.map(_.toLong).toIndexedSeq: _*)

  /** One peel round of `batch` (already marked peeled in `st`), as one
    * Spark job: joins the batch's live edges with the live edges to
    * generate every wedge `u–v–u'`, aggregates by `(u, u')` into
    * shared-butterfly decrements `C(c,2)` and by `u'` into one combined
    * update, then applies `⋈_{u'} ← max(capFloor, ⋈_{u'} − dec)` to the
    * driver-side supports of `st` and drops the batch from `live`. Returns
    * the wedges traversed and the distinct live vertices whose support
    * changed.
    */
  def peelRound(st: PeelState, live: LiveEdges, batch: Array[Int], capFloor: Long): (Long, Array[Int]) = {
    val edges = live.cur
    val updates = edges.where(hasU(batch)).select(col("u") as "pu", col("v"))
      .join(edges.select(col("u") as "u2", col("v")), "v")
      .where(col("u2") =!= col("pu"))
      .groupBy("pu", "u2").agg(count(lit(1)) as "c")
      .groupBy("u2")
      .agg(sum(BipartiteDF.choose2(col("c"))) as "dec", sum(col("c")) as "wsum")
      .collect()
    var wedges = 0L
    val touched = scala.collection.mutable.ArrayBuffer[Int]()
    updates.foreach { r =>
      val u2 = r.getLong(0).toInt
      val dec = r.getLong(1)
      wedges += r.getLong(2)
      if (st.alive(u2) && dec > 0) {
        val cur = st.sup.get(u2)
        val next = math.max(capFloor, cur - dec)
        if (next != cur) { st.sup.set(u2, next); touched += u2 }
      }
    }
    live.drop(batch)
    (wedges, touched.toArray)
  }

  /** The live edge set of an iterative peel: one materialized `base` minus
    * the U vertices dropped since it was made, filtered out on every read.
    * The first base is the full edge set `edges0`, cached and filled by its
    * first reader. Every [[CheckpointEvery]]+1-th [[drop]] re-bases: the live
    * edges are eagerly checkpointed, and only then is the old base released,
    * so no lineage points at dropped blocks and a run holds one materialized
    * generation. A drop that does not re-base starts no job. [[release]]
    * frees the base.
    */
  final class LiveEdges private[SparkPeel] (edges: DataFrame) {
    val edges0: DataFrame = edges.cache()

    private var base = edges0
    private val dropped = scala.collection.mutable.ArrayBuffer[Array[Int]]() // batches since `base`

    def cur: DataFrame = if (dropped.isEmpty) base else base.where(!hasU(dropped.flatten.toArray))

    def drop(batch: Array[Int]): Unit = {
      dropped += batch
      if (dropped.length > CheckpointEvery) {
        val next = cur.localCheckpoint(true) // eager: lineage truncated here
        release()
        base = next
        dropped.clear()
      }
    }

    def release(): Unit = {
      base.unpersist()
      base.queryExecution.logical match { // a checkpoint keeps its own RDD
        case r: LogicalRDD => r.rdd.unpersist(blocking = false)
        case _ =>
      }
    }
  }
}
