package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.bipartite.{BUP, PeelState, ReceiptLocal}

/** RECEIPT as a Spark dataflow.
  *
  * Mapping of the paper's shared-memory design onto Spark:
  *
  *  - **CD peel iteration → one Spark job.** The whole active range is
  *    peeled at once: a join of the peeled vertices' edges with the live
  *    edge set generates every wedge `u–v–u'`, aggregation by `(u, u')`
  *    yields shared-butterfly decrements `C(c,2)`, and a second aggregation
  *    by `u'` produces one combined support update per 2-hop neighbour.
  *    The job barrier *is* the synchronization round ρ counts.
  *  - **Control state lives on the driver** (support array, range bounds,
  *    HUC cost estimates via a [[PeelState]] skeleton) — the analogue of
  *    the paper's shared arrays. The CD loop is the same alg. 3 driver the
  *    shared-memory engine runs ([[ReceiptLocal.coarseDecomposition]]);
  *    only its peel rounds and re-counts are Spark jobs ([[SparkPeel]]),
  *    so all wedge-heavy work (counting, update aggregation, induced
  *    peels) runs distributed.
  *  - **DGM is structural here**: peeled vertices are anti-joined out of
  *    the live edge DataFrame every iteration, so no stale wedges are ever
  *    shuffled (the paper's periodic compaction, at iteration granularity).
  *  - **HUC**: when the live peel cost `Σ_{u∈active} Σ_{v∈N_u} d_v` exceeds
  *    the Chiba–Nishizeki re-count bound, the round instead re-counts
  *    butterflies with [[SparkButterfly]] on the live edge set.
  *  - **FD subset → one `flatMapGroups` task.** Each subset's induced
  *    edges are grouped to a single task that runs the same exact subset
  *    peel as the shared-memory engine ([[BUP.peelSubset]]) seeded from
  *    `⋈^init` — the paper's one-thread-per-subset task queue, scheduled by
  *    Spark.
  */
object SparkReceipt {

  final case class Config(P: Int = 15, enableHUC: Boolean = true)

  type Metrics = ReceiptLocal.Metrics
  type Result = ReceiptLocal.Result

  def run(spark: SparkSession, edgesIn: DataFrame, nU: Int, nV: Int,
          cfg: Config = Config()): Result = SparkPeel.withLiveEdges(spark, edgesIn) { live =>
    import spark.implicits._

    // Driver-side skeleton: adjacency for cost estimates and FD membership.
    val g = BipartiteDF.toLocal(live.edges0, nU, nV)
    val st = new PeelState(g, enableDGM = false) // bookkeeping only

    // ---- initial counting (Spark dataflow) ----
    val tCnt0 = System.nanoTime()
    val counts = SparkButterfly.perVertex(spark, live.edges0, nU, nV)
    st.setSupports(counts.cntU)
    val cntTimeMs = (System.nanoTime() - tCnt0) / 1e6

    // ---- Coarse-grained Decomposition: the shared alg. 3 driver ----
    val rounds = new ReceiptLocal.CDRounds {
      def peelCost(u: Int): Long = st.livePeelCost(u) // DGM is structural here
      def peel(batch: Array[Int], capFloor: Long): (Long, Array[Int]) = {
        val peeled = SparkPeel.vertexSet(spark, batch)
        val r = SparkPeel.peelRound(st, live.cur, peeled, capFloor)
        live.drop(peeled)
        r
      }
      def recount(removed: Array[Int]): (Array[Long], Long) = {
        live.drop(SparkPeel.vertexSet(spark, removed))
        val rc = SparkButterfly.perVertex(spark, live.cur, nU, nV)
        (rc.cntU, rc.wedgeRows)
      }
    }
    val cd = ReceiptLocal.coarseDecomposition(st, cfg.P, cfg.enableHUC, counts.wedgeRows, cntTimeMs, rounds)
    val tCd1 = System.nanoTime()

    // ---- Fine-grained Decomposition ----
    val assign = (0 until nU).collect {
      case u if cd.subsetOf(u) >= 0 => (u.toLong, cd.subsetOf(u), cd.supInit(u))
    }
    val assignDF = spark.createDataset(assign.toSeq).toDF("u", "subset", "supInit")
    val induced = live.edges0.join(assignDF, "u")
      .select(col("subset").cast("int") as "subset", col("u"), col("v"), col("supInit"))
      .as[(Int, Long, Long, Long)]

    val fdRows = induced
      .groupByKey(_._1)
      .flatMapGroups((_, rows) => peelSubsetTask(rows))
      .collect()

    // degree-0 vertices never reach the FD dataflow; their tip is their (zero) support
    val tips = Array.tabulate(nU)(u => if (g.degU(u) == 0) cd.supInit(u) else -1L)
    fdRows.foreach { case (u, tip, _) => tips(u.toInt) = tip }
    ReceiptLocal.result(tips, cd, fdRows.map(_._3).sum, fdTimeMs = (System.nanoTime() - tCd1) / 1e6)
  }

  /** FD executor task: [[BUP.peelSubset]] on one subset's rows
    * `(subset, u, v, ⋈^init_u)`, one per induced edge. Emits `(u, θ_u,
    * wedgeShare)` rows; the subset's FD wedge count rides on the first.
    */
  private def peelSubsetTask(rows: Iterator[(Int, Long, Long, Long)]): Iterator[(Long, Long, Long)] = {
    val buf = rows.toArray
    val edges = buf.map(r => (r._2 << 32) | r._3).sorted
    val members = edges.iterator.map(e => (e >>> 32).toInt).distinct.toArray
    val init = new Array[Long](members.length)
    buf.foreach(r => init(java.util.Arrays.binarySearch(members, r._2.toInt)) = r._4)
    val (tips, wedges) = BUP.peelSubset(members, init, edges, enableDGM = true)
    members.indices.iterator.map(k => (members(k).toLong, tips(k), if (k == 0) wedges else 0L))
  }
}
