package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bipartite.{PeelState, ReceiptLocal}

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
  *  - **DGM is structural here**: every query filters the peeled vertices
  *    out of the live edges before any shuffle, so no stale wedges are ever
  *    shuffled (the paper's compaction, at iteration granularity).
  *  - **HUC**: when the live peel cost `Σ_{u∈active} Σ_{v∈N_u} d_v` exceeds
  *    the Chiba–Nishizeki re-count bound, the round instead re-counts
  *    butterflies with [[SparkButterfly]] on the live edge set.
  *  - **FD subset → one Spark task.** The driver builds the same task
  *    list as the shared-memory engine ([[ReceiptLocal.fdTasks]]: members,
  *    `⋈^init` and induced edges per subset, LPT order) and parallelizes it
  *    one task per partition; each runs the same exact subset peel
  *    ([[repro.bipartite.BUP.peelSubset]]) — the paper's one-thread-per-subset
  *    task queue, scheduled by Spark.
  */
object SparkReceipt {

  final case class Config(P: Int = 15, enableHUC: Boolean = true)

  type Metrics = ReceiptLocal.Metrics
  type Result = ReceiptLocal.Result

  def run(spark: SparkSession, edgesIn: DataFrame, nU: Int, nV: Int,
          cfg: Config = Config()): Result = SparkPeel.withLiveEdges(spark, edgesIn) { live =>
    // Driver-side skeleton: adjacency for cost estimates and the FD task list.
    val g = BipartiteDF.toLocal(live.edges0, nU, nV)
    val st = new PeelState(g, enableDGM = false) // bookkeeping only

    // ---- initial counting (Spark dataflow) ----
    val tCnt0 = System.nanoTime()
    val counts = SparkButterfly.perVertex(live.edges0, nU, nV)
    st.setSupports(counts.cntU)
    val cntTimeMs = (System.nanoTime() - tCnt0) / 1e6

    // ---- Coarse-grained Decomposition: the shared alg. 3 driver ----
    val rounds = new ReceiptLocal.CDRounds {
      def peelCost(u: Int): Long = st.livePeelCost(u) // DGM is structural here
      def peel(batch: Array[Int], capFloor: Long): (Long, Array[Int]) =
        SparkPeel.peelRound(st, live, batch, capFloor)
      def recount(removed: Array[Int]): (Array[Long], Long) = {
        live.drop(removed)
        val rc = SparkButterfly.perVertex(live.cur, nU, nV)
        (rc.cntU, rc.wedges)
      }
    }
    val cd = ReceiptLocal.coarseDecomposition(st, cfg.P, cfg.enableHUC, counts.wedges, cntTimeMs, rounds)
    val tCd1 = System.nanoTime()

    // ---- Fine-grained Decomposition: one Spark task per subset ----
    val (tips, fdWedges) = ReceiptLocal.fineDecomposition(g, cd) { tasks =>
      spark.sparkContext.parallelize(tasks.toSeq, math.max(1, tasks.length))
        .map(_.peel(enableDGM = true)).collect()
    }
    ReceiptLocal.result(tips, cd, fdWedges, fdTimeMs = (System.nanoTime() - tCd1) / 1e6)
  }
}
