package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bipartite.{ParB, PeelState}

/** ParB (parallel bottom-up peeling, ParButterfly BATCH mode) as a Spark
  * dataflow — the baseline RECEIPT is compared against, on the same
  * substrate as [[SparkReceipt]].
  *
  * It runs the shared-memory ParB's min-support batch loop ([[ParB.peel]])
  * with one Spark job per round ([[SparkPeel.peelRound]]), so ρ here equals
  * the shared-memory ParB's ρ — which is 2–4 orders of magnitude larger
  * than RECEIPT's. At ~10³–10⁴ rounds a dataflow round costs far more than
  * it computes; the `budgetMs` / `maxRounds` caps let benchmarks report "did
  * not finish" exactly the way the paper's table 3 reports `∞` / `-` for
  * its baselines on the large datasets.
  */
object SparkParB {

  final case class Result(
      tips: Array[Long],      // -1 for vertices not reached before the cap
      rounds: Long,
      peelWedges: Long,
      finished: Boolean,
      elapsedMs: Double
  )

  def run(spark: SparkSession, edgesIn: DataFrame, nU: Int, nV: Int,
          budgetMs: Long = 120000, maxRounds: Long = Long.MaxValue): Result = {
    val t0 = System.nanoTime()
    def elapsedMs: Double = (System.nanoTime() - t0) / 1e6
    SparkPeel.withLiveEdges(spark, edgesIn) { live =>
      val g = BipartiteDF.toLocal(live.edges0, nU, nV)
      val st = new PeelState(g, enableDGM = false) // driver support bookkeeping
      st.setSupports(SparkButterfly.perVertex(spark, live.edges0, nU, nV).cntU)

      val r = ParB.peel(st, SparkPeel.peelRound(st, live, _, _),
        rounds => elapsedMs < budgetMs && rounds < maxRounds)
      Result(r.tips, r.metrics.rounds, r.metrics.peelWedges, finished = st.aliveCount == 0, elapsedMs)
    }
  }
}
