package repro.harness

import org.apache.spark.sql.SparkSession
import repro.BipartiteGen
import repro.BipartiteGen.DatasetConfig
import repro.bipartite._
import repro.core.{BipartiteDF, SparkParB, SparkReceipt}

/** Harness shared by the `jobs/` spark-submit entrypoints and the `bench/`
  * suites: computes the rows of the paper's evaluation tables on the
  * synthetic "-lite" datasets.
  *
  * Table 2 — dataset statistics (|U|, |V|, |E|, average degrees, ⋈_G, Λ_G,
  * θ^max for both sides).
  *
  * Table 3 — per dataset and per peeled side: execution time t, wedges
  * traversed Λ, and synchronization rounds ρ for pvBcnt / BUP / ParB /
  * RECEIPT (both the shared-memory kernel, the paper's setting, and the
  * Spark dataflow implementation).
  */
object Tables {

  val DefaultP = 15
  val DefaultThreads: Int = math.min(16, Runtime.getRuntime.availableProcessors())

  // -------------------------------------------------------------- table 2 --

  final case class Table2Row(
      name: String, nU: Int, nV: Int, m: Int,
      dU: Double, dV: Double,
      butterflies: Long, wedgesU: Long, wedgesV: Long,
      thetaMaxU: Long, thetaMaxV: Long
  ) {
    def markdown: String =
      f"| $name | $nU%,d | $nV%,d | $m%,d | $dU%.1f / $dV%.1f | $butterflies%,d | ${wedgesU + wedgesV}%,d | $thetaMaxU%,d | $thetaMaxV%,d |"
  }

  def table2Header: String =
    "| Dataset | |U| | |V| | |E| | d_U / d_V | ⋈_G | ∧_G | θmax_U | θmax_V |\n" +
    "|---|---|---|---|---|---|---|---|---|"

  def table2Row(cfg: DatasetConfig): Table2Row = {
    val g = BipartiteGen.generate(cfg)
    val counts = ButterflyCounting.vertexPriority(g, DefaultThreads)
    val recU = ReceiptLocal.run(g, ReceiptLocal.Config(P = DefaultP, threads = DefaultThreads))
    val recV = ReceiptLocal.run(g.transpose, ReceiptLocal.Config(P = DefaultP, threads = DefaultThreads))
    Table2Row(
      cfg.name, g.nU, g.nV, g.m,
      g.m.toDouble / g.nU, g.m.toDouble / g.nV,
      counts.totalButterflies, g.wedgesEndpointsU, g.wedgesEndpointsV,
      recU.tips.max, recV.tips.max
    )
  }

  // -------------------------------------------------------------- table 3 --

  final case class Table3Row(
      dataset: String, // e.g. "ItU"
      tPvBcntMs: Double,
      tBupMs: Double,
      tParBMs: Double,
      tReceiptMs: Double,
      tReceiptSparkMs: Double,
      tParBSparkMs: Double,
      parBSparkFinished: Boolean,
      wPvBcnt: Long,
      wBup: Long,
      wReceipt: Long,
      wReceiptSpark: Long,
      rhoParB: Long,
      rhoReceipt: Long,
      rhoReceiptSpark: Long
  ) {
    private def parbSparkCell: String =
      if (parBSparkFinished) f"${tParBSparkMs / 1000}%.1f" else "DNF"
    def markdownTime: String =
      f"| $dataset | ${tPvBcntMs / 1000}%.2f | ${tBupMs / 1000}%.1f | ${tParBMs / 1000}%.1f | ${tReceiptMs / 1000}%.1f | ${tReceiptSparkMs / 1000}%.1f | $parbSparkCell |"
    def markdownWedges: String =
      f"| $dataset | ${wPvBcnt / 1e6}%.1f | ${wBup / 1e6}%.1f | ${wReceipt / 1e6}%.1f | ${wReceiptSpark / 1e6}%.1f |"
    def markdownRho: String =
      f"| $dataset | $rhoParB%,d | $rhoReceipt%,d | $rhoReceiptSpark%,d |"
  }

  /** Run every engine on one side of one dataset. `side` is "U" or "V" —
    * decomposing V is decomposing U of the transposed graph, exactly as the
    * paper suffixes its dataset names.
    */
  def table3Row(spark: SparkSession, cfg: DatasetConfig, side: String): Table3Row = {
    val g0 = BipartiteGen.generate(cfg)
    val g = if (side == "U") g0 else g0.transpose
    val name = cfg.name + side

    val bup = BUP.run(g)
    val parb = ParB.run(g, DefaultThreads)
    val rec = ReceiptLocal.run(g, ReceiptLocal.Config(P = DefaultP, threads = DefaultThreads))
    require(bup.tips.toSeq == parb.tips.toSeq, s"$name: ParB tips diverge from BUP")
    require(bup.tips.toSeq == rec.tips.toSeq, s"$name: RECEIPT tips diverge from BUP")

    val df = BipartiteGen.edgesDF(spark, g0)
    val edges = if (side == "U") df else BipartiteDF.transposed(df)
    val sr = SparkReceipt.run(spark, edges, g.nU, g.nV, SparkReceipt.Config(P = DefaultP))
    require(sr.tips.toSeq == bup.tips.toSeq, s"$name: Spark RECEIPT tips diverge from BUP")
    // The dataflow baseline gets a fixed budget; on any non-trivial side
    // its per-round barrier cost makes it DNF, mirroring the paper's
    // `∞` / `-` baseline entries.
    val pb = SparkParB.run(spark, edges, g.nU, g.nV,
      budgetMs = sys.env.getOrElse("PARB_SPARK_BUDGET_MS", "60000").toLong)
    if (pb.finished)
      require(pb.tips.toSeq == bup.tips.toSeq, s"$name: Spark ParB tips diverge from BUP")

    Table3Row(
      dataset = name,
      tPvBcntMs = bup.metrics.cntTimeMs,
      tBupMs = bup.metrics.peelTimeMs,
      tParBMs = parb.metrics.peelTimeMs,
      tReceiptMs = rec.metrics.totalTimeMs,
      tReceiptSparkMs = sr.metrics.totalTimeMs,
      tParBSparkMs = pb.elapsedMs,
      parBSparkFinished = pb.finished,
      wPvBcnt = bup.metrics.cntWedges,
      wBup = bup.metrics.totalWedges,
      wReceipt = rec.metrics.totalWedges,
      wReceiptSpark = sr.metrics.totalWedges,
      rhoParB = parb.metrics.rounds,
      rhoReceipt = rec.metrics.rounds,
      rhoReceiptSpark = sr.metrics.rounds
    )
  }
}
