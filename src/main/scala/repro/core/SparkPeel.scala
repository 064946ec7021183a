package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.functions._
import repro.bipartite.PeelState

/** Batch-peeling building blocks shared by the dataflow engines
  * ([[SparkReceipt]] CD rounds and [[SparkParB]] rounds): one round
  * ([[peelRound]]) is one wedge-join update query over the live edge set,
  * followed by an anti-join that removes the peeled vertices' edges.
  */
object SparkPeel {

  /** Live edges are checkpointed every this many rounds to cut lineage. */
  val CheckpointEvery = 8

  /** Runs `body` on the live edges of `edgesIn` (see [[LiveEdges]]) with
    * narrow shuffles and adaptive execution off: peeling runs many small
    * iterative jobs, for which wide shuffles and re-planning are pure
    * overhead. Afterwards releases everything the live edges cached and
    * restores both settings.
    */
  def withLiveEdges[A](spark: SparkSession, edgesIn: DataFrame)(body: LiveEdges => A): A = {
    val prevShuffle = spark.conf.get("spark.sql.shuffle.partitions")
    val prevAqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    try {
      val live = new LiveEdges(BipartiteDF.canonical(edgesIn))
      try body(live) finally live.release()
    } finally {
      spark.conf.set("spark.sql.shuffle.partitions", prevShuffle)
      spark.conf.set("spark.sql.adaptive.enabled", prevAqe)
    }
  }

  /** A vertex batch as a one-column `u` DataFrame (a join key set). */
  def vertexSet(spark: SparkSession, us: Array[Int]): DataFrame = {
    import spark.implicits._
    spark.createDataset(us.map(_.toLong).toSeq).toDF("u")
  }

  /** One peel round of `batch` (already marked peeled in `st`), as one
    * Spark job: joins the batch's edges with the live edges to generate
    * every wedge `u–v–u'`, aggregates by `(u, u')` into shared-butterfly
    * decrements `C(c,2)` and by `u'` into one combined update, then applies
    * `⋈_{u'} ← max(capFloor, ⋈_{u'} − dec)` to the driver-side supports of
    * `st` and drops the batch from `live`. Returns the wedges traversed and
    * the distinct live vertices whose support changed.
    */
  def peelRound(st: PeelState, live: LiveEdges, batch: Array[Int], capFloor: Long): (Long, Array[Int]) = {
    val peeled = vertexSet(live.edges0.sparkSession, batch)
    val edges = live.cur
    val updates = edges.join(peeled, "u").select(col("u") as "pu", col("v"))
      .join(edges.select(col("u") as "u2", col("v")), "v")
      .where(col("u2") =!= col("pu"))
      .groupBy("pu", "u2").agg(count(lit(1)) as "c")
      .groupBy("u2")
      .agg(sum(col("c") * (col("c") - 1) / 2) as "dec", sum(col("c")) as "wsum")
      .collect()
    var wedges = 0L
    val touched = scala.collection.mutable.ArrayBuffer[Int]()
    updates.foreach { r =>
      val u2 = r.getLong(0).toInt
      val dec = BipartiteDF.longAt(r, 1)
      wedges += BipartiteDF.longAt(r, 2)
      if (st.alive(u2) && dec > 0) {
        val cur = st.sup.get(u2)
        val next = math.max(capFloor, cur - dec)
        if (next != cur) { st.sup.set(u2, next); touched += u2 }
      }
    }
    live.drop(peeled)
    (wedges, touched.toArray)
  }

  /** The live edge set of an iterative peel, starting from the full edge
    * set `edges0`, which is cached and counted on construction. Each
    * [[drop]] anti-joins a peeled batch out; the new generation is cached
    * (materialized by the next round's job), and every
    * [[CheckpointEvery]]+1-th one is eagerly checkpointed instead, after
    * which the older generations — `edges0` included, so later readers of
    * it recompute it — are released; only then, so no live lineage points
    * at dropped blocks. [[release]] frees everything still held.
    */
  final class LiveEdges private[SparkPeel] (edges: DataFrame) {
    val edges0: DataFrame = edges.cache()
    edges0.count()

    private var current = edges0
    private var sinceCheckpoint = 0
    private val held = scala.collection.mutable.ArrayBuffer[DataFrame](edges0)

    def cur: DataFrame = current

    def drop(peeled: DataFrame): Unit = {
      val next = current.join(peeled, Seq("u"), "left_anti")
      if (sinceCheckpoint >= CheckpointEvery) {
        sinceCheckpoint = 0
        current = next.localCheckpoint(true) // eager: lineage truncated here
        release()
      } else {
        sinceCheckpoint += 1
        current = next.cache() // lazy: materializes with the next round's job
      }
      held += current
    }

    def release(): Unit = {
      held.foreach { df =>
        df.unpersist()
        df.queryExecution.logical match { // a checkpoint keeps its own RDD
          case r: LogicalRDD => r.rdd.unpersist(blocking = false)
          case _ =>
        }
      }
      held.clear()
    }
  }
}
