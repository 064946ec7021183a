package repro.harness

import org.apache.spark.sql.SparkSession
import repro.BipartiteGen
import repro.BipartiteGen.DatasetConfig
import repro.bipartite._
import repro.core.{BipartiteDF, SparkParB, SparkReceipt}

/** Harness shared by the `jobs/` spark-submit entrypoints and the `bench/`
  * suites: computes the rows of the paper's evaluation tables on the
  * synthetic "-lite" datasets and renders each table as markdown.
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
  )

  /** Table 2 as one markdown table, a row per dataset. */
  def table2(rows: Seq[Table2Row]): String =
    (Seq(
      "| Dataset | \\|U\\| | \\|V\\| | \\|E\\| | d_U / d_V | ⋈_G | ∧_G | θmax_U | θmax_V |",
      "|---|---|---|---|---|---|---|---|---|") ++
    rows.map { r =>
      import r._
      f"| $name | $nU%,d | $nV%,d | $m%,d | $dU%.1f / $dV%.1f | $butterflies%,d | ${wedgesU + wedgesV}%,d | $thetaMaxU%,d | $thetaMaxV%,d |"
    }).mkString("\n")

  def table2Row(cfg: DatasetConfig): Table2Row = {
    val g = BipartiteGen.generate(cfg)
    val counts = ButterflyCounting.vertexPriority(g, DefaultThreads)
    val recU = ReceiptLocal.run(g, ReceiptLocal.Config(P = DefaultP, threads = DefaultThreads))
    val recV = ReceiptLocal.run(g.transpose, ReceiptLocal.Config(P = DefaultP, threads = DefaultThreads))
    // Σ_u w[u] counts every wedge with both endpoints in U twice (once per endpoint)
    def wedges(h: BipartiteGraph) = h.wedgeEndpointCountU.sum / 2
    Table2Row(
      cfg.name, g.nU, g.nV, g.m,
      g.m.toDouble / g.nU, g.m.toDouble / g.nV,
      counts.totalButterflies, wedges(g), wedges(g.transpose),
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
  )

  /** Table 3 as three markdown tables (t, Λ, ρ), a row per dataset side. */
  def table3(rows: Seq[Table3Row]): String = {
    def s(ms: Double) = ms / 1000
    def table(title: String, header: String, row: Table3Row => String) =
      Seq(title, header, header.replaceAll("[^|]+", "---")) ++ rows.map(row)
    (table("t (s):", "| dataset | pvBcnt | BUP | ParB | RECEIPT | RECEIPT-Spark | ParB-Spark |", { r =>
      import r._
      val parbSpark = if (parBSparkFinished) f"${s(tParBSparkMs)}%.1f" else "DNF"
      f"| $dataset | ${s(tPvBcntMs)}%.2f | ${s(tBupMs)}%.1f | ${s(tParBMs)}%.1f | ${s(tReceiptMs)}%.1f | ${s(tReceiptSparkMs)}%.1f | $parbSpark |"
    }) ++ table("Λ (millions of wedges):", "| dataset | pvBcnt | BUP | RECEIPT | RECEIPT-Spark |", { r =>
      import r._
      f"| $dataset | ${wPvBcnt / 1e6}%.1f | ${wBup / 1e6}%.1f | ${wReceipt / 1e6}%.1f | ${wReceiptSpark / 1e6}%.1f |"
    }) ++ table("ρ (synchronization rounds):", "| dataset | ParB | RECEIPT | RECEIPT-Spark |", { r =>
      import r._
      f"| $dataset | $rhoParB%,d | $rhoReceipt%,d | $rhoReceiptSpark%,d |"
    })).mkString("\n")
  }

  /** Every Table 3 row: each dataset's name suffixed by the peeled side. */
  def table3Tags: Seq[String] = BipartiteGen.datasets.flatMap(c => Seq(c.name + "U", c.name + "V"))

  /** Run every engine on one side of one dataset, named by its row tag
    * (`ItU`, `TrV`, …). Decomposing V is decomposing U of the transposed
    * graph, exactly as the paper suffixes its dataset names.
    */
  def table3Row(spark: SparkSession, name: String): Table3Row = {
    val side = name.takeRight(1)
    require(side == "U" || side == "V", s"$name: a row tag ends in U or V")
    val g0 = BipartiteGen.generate(BipartiteGen.byName(name.dropRight(1)))
    val g = if (side == "U") g0 else g0.transpose

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
