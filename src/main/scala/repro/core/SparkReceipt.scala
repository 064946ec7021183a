package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.bipartite.{BipartiteGraph, BUP, PeelState, ReceiptLocal}

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
  *    subgraph is grouped to a single task that runs the *exact* sequential
  *    peel ([[BUP.peel]]) seeded from `⋈^init` — the paper's
  *    one-thread-per-subset task queue, scheduled by Spark.
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
      .flatMapGroups { (subset, rows) => peelSubsetTask(subset, rows) }
      .collect()

    val tips = Array.fill[Long](nU)(-1L)
    var fdWedges = 0L
    fdRows.foreach { case (u, tip, wRow) =>
      if (u >= 0) tips(u.toInt) = tip
      fdWedges += wRow
    }
    // degree-0 vertices of U never reach the FD dataflow: their subset is
    // known and their tip number is their (zero) support.
    var u3 = 0
    while (u3 < nU) {
      if (tips(u3) < 0 && cd.subsetOf(u3) >= 0 && g.degU(u3) == 0) tips(u3) = cd.supInit(u3)
      u3 += 1
    }
    ReceiptLocal.result(tips, cd, fdWedges, fdTimeMs = (System.nanoTime() - tCd1) / 1e6)
  }

  /** FD executor task: exact sequential BUP on one subset's induced
    * subgraph, supports seeded from `⋈^init`. Emits `(u, θ_u, wedgeShare)`
    * rows where the subset's FD wedge count rides on the first row.
    */
  private def peelSubsetTask(subset: Int, rows: Iterator[(Int, Long, Long, Long)]): Iterator[(Long, Long, Long)] = {
    val buf = rows.toArray
    if (buf.isEmpty) Iterator.empty
    else {
      val us = buf.map(_._2).distinct.sorted
      val vs = buf.map(_._3).distinct.sorted
      val uIdx = us.zipWithIndex.toMap
      val vIdx = vs.zipWithIndex.toMap
      val g = BipartiteGraph.fromEdges(us.length, vs.length,
        buf.map(r => (uIdx(r._2), vIdx(r._3))).toSeq)
      val init = new Array[Long](us.length)
      buf.foreach(r => init(uIdx(r._2)) = r._4)
      val members = Array.tabulate(us.length)(identity)
      val r = BUP.peel(g, init, members, enableDGM = true)
      members.iterator.map { lu =>
        (us(lu), r.tips(lu), if (lu == 0) r.metrics.peelWedges else 0L)
      }
    }
  }
}
