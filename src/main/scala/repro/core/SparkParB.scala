package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bipartite.PeelState

/** ParB (parallel bottom-up peeling, ParButterfly BATCH mode) as a Spark
  * dataflow — the baseline RECEIPT is compared against, on the same
  * substrate as [[SparkReceipt]].
  *
  * Every round peels exactly the minimum-support vertices and pays one job
  * barrier, so ρ here equals the shared-memory ParB's ρ — which is 2–4
  * orders of magnitude larger than RECEIPT's. At ~10³–10⁴ rounds a
  * dataflow round costs far more than it computes; the `budgetMs` /
  * `maxRounds` caps let benchmarks report "did not finish" exactly the way
  * the paper's table 3 reports `∞` / `-` for its baselines on the large
  * datasets.
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
    SparkPeel.withLiveEdges(spark, edgesIn) { live =>
      val g = BipartiteDF.toLocal(live.edges0, nU, nV)
      val st = new PeelState(g, enableDGM = false) // driver support bookkeeping

      val counts = SparkButterfly.perVertex(spark, live.edges0, nU, nV)
      st.setSupports(counts.cntU)

      val tips = Array.fill[Long](nU)(-1L)
      var rounds = 0L
      var peelWedges = 0L

      def elapsedMs: Double = (System.nanoTime() - t0) / 1e6

      while (st.aliveCount > 0 && elapsedMs < budgetMs && rounds < maxRounds) {
        // batch = all live vertices at minimum support
        var m = Long.MaxValue
        var u = 0
        while (u < nU) { if (st.alive(u) && st.sup.get(u) < m) m = st.sup.get(u); u += 1 }
        val batch = scala.collection.mutable.ArrayBuffer[Int]()
        u = 0
        while (u < nU) { if (st.alive(u) && st.sup.get(u) == m) batch += u; u += 1 }
        batch.foreach { u1 => tips(u1) = m; st.markPeeled(u1) }

        val peeled = SparkPeel.vertexSet(spark, batch.toArray)
        peelWedges += SparkPeel.peelRound(st, live.cur, peeled, m)._1
        live.drop(peeled)
        rounds += 1
      }
      Result(tips, rounds, peelWedges, finished = st.aliveCount == 0, elapsedMs)
    }
  }
}
