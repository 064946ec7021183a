package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.bipartite.PeelState

/** Batch-peeling building blocks shared by the dataflow engines
  * ([[SparkReceipt]] CD rounds and [[SparkParB]] rounds). The live edges
  * are never stored: they are the cached input `edges0` filtered by the
  * driver's `alive` flags ([[live]]), and one round ([[peelRound]]) is one
  * wedge-join update query over the edges live before it.
  */
object SparkPeel {

  /** Runs `body` on the canonical edges of `edgesIn`, cached (`edges0`), in
    * a session of its own (`spark.newSession()`: same SparkContext and
    * cache, own SQL conf) with narrow shuffles and adaptive execution off:
    * peeling runs many small iterative jobs, for which wide shuffles and
    * re-planning are pure overhead. The caller's session conf is never
    * touched, so several runs can share one session, concurrently too.
    * Afterwards unpersists `edges0`, the only data a run caches.
    */
  def withEdges[A](spark: SparkSession, edgesIn: DataFrame)(body: DataFrame => A): A = {
    val session = spark.newSession()
    session.conf.set("spark.sql.shuffle.partitions", "8")
    session.conf.set("spark.sql.adaptive.enabled", "false")
    // Queries plan under the session of their leftmost input, so the input
    // is rebound to the engine's session before anything is built on it.
    val uv = edgesIn.select("u", "v")
    val edges0 = BipartiteDF.canonical(session.createDataFrame(uv.rdd, uv.schema)).cache()
    try body(edges0) finally edges0.unpersist()
  }

  /** Rows whose `u` is set in `flags`: one UDF whatever the set's size, so
    * every plan stays the same size. `flags` must not be written afterwards
    * (a query built on it reads it whenever it runs).
    */
  private def flagged(flags: Array[Boolean]): Column = udf((u: Long) => flags(u.toInt)).apply(col("u"))

  /** The edges of `edges0` whose U end is alive in `st` now (DGM: the
    * peeled vertices' edges are gone before any shuffle).
    */
  def live(st: PeelState, edges0: DataFrame): DataFrame = edges0.where(flagged(st.alive.clone()))

  /** One peel round of `batch` (already marked peeled in `st`), as one
    * Spark job: joins the batch's edges with the edges live before the
    * round (`alive ∪ batch`) to generate every wedge `u–v–u'`, aggregates
    * by `(u, u')` into shared-butterfly decrements `C(c,2)` and by `u'` into
    * one combined update, then applies `⋈_{u'} ← max(capFloor, ⋈_{u'} − dec)`
    * to the driver-side supports of `st`. Returns the wedges traversed and
    * the distinct live vertices whose support changed.
    */
  def peelRound(st: PeelState, edges0: DataFrame, batch: Array[Int], capFloor: Long): (Long, Array[Int]) = {
    val inBatch = new Array[Boolean](st.g.nU)
    batch.foreach(inBatch(_) = true)
    val liveBefore = st.alive.clone()
    batch.foreach(liveBefore(_) = true)
    val updates = edges0.where(flagged(inBatch)).select(col("u") as "pu", col("v"))
      .join(edges0.where(flagged(liveBefore)).select(col("u") as "u2", col("v")), "v")
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
    (wedges, touched.toArray)
  }
}
