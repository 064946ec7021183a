package repro.bench

import repro.SparkSpec
import repro.harness.Tables
import repro.harness.Tables.Table3Row

/** Reproduces **Table 3** of the paper: execution time (t), wedges
  * traversed (Λ) and synchronization rounds (ρ) of BUP, ParB and RECEIPT
  * on all six datasets, peeling both vertex sets (12 rows).
  *
  * Engines, per row:
  *  - pvBcnt / BUP / ParB / RECEIPT: the shared-memory kernels (the paper's
  *    substrate);
  *  - RECEIPT-Spark: the Catalyst dataflow implementation;
  *  - ParB-Spark: the dataflow baseline under a fixed budget — it DNFs on
  *    every non-trivial side, mirroring the paper's `∞`/`-` entries.
  *
  * Each row internally asserts that every engine produced identical tip
  * numbers before any metric is reported. Paper-vs-measured numbers live in
  * EXPERIMENTS.md. The shape tests at the bottom check the paper's headline
  * claims on the measured numbers.
  */
class Table3Bench extends SparkSpec {

  private val highR = Set("ItU", "LjU", "EnU", "TrU") // paper: r > 1000 rows

  private lazy val rows: Seq[Table3Row] = {
    val tags = sys.env.get("TABLE3_ROWS") match {
      case Some(s) => s.split(",").toSeq.map(_.trim).filter(_.nonEmpty)
      case None    => Tables.table3Tags
    }
    tags.map { tag =>
      val r = Tables.table3Row(spark, tag)
      println(s"[table3] finished $tag")
      r
    }
  }

  test("Table 3: t / Λ / ρ for all engines") {
    println("\n==== Table 3 (reproduction) ====")
    println(Tables.table3(rows))
  }

  test("shape: RECEIPT traverses fewer wedges than BUP on every row") {
    rows.foreach(r => assert(r.wReceipt < r.wBup, r.dataset))
  }

  test("shape: wedge reduction is largest on the high-r U sides") {
    val hi = rows.filter(r => highR(r.dataset))
    val lo = rows.filter(r => r.dataset.endsWith("V"))
    if (hi.nonEmpty && lo.nonEmpty) {
      val hiRed = hi.map(r => r.wBup.toDouble / r.wReceipt).min
      val loRed = lo.map(r => r.wBup.toDouble / r.wReceipt).max
      assert(hiRed > 2.0, s"high-r rows should cut wedges >2x, got $hiRed")
      assert(hiRed > loRed / 2, "high-r rows should reduce at least comparably to V sides")
    }
  }

  test("shape: ρ_RECEIPT is orders of magnitude below ρ_ParB") {
    rows.foreach { r =>
      assert(r.rhoReceipt * 10 <= r.rhoParB,
        s"${r.dataset}: ρ_REC=${r.rhoReceipt} ρ_ParB=${r.rhoParB}")
    }
    val maxRatio = rows.map(r => r.rhoParB.toDouble / r.rhoReceipt).max
    println(f"[table3] max ρ reduction: $maxRatio%.0f× (paper: up to 1105×)")
    assert(maxRatio > 50)
  }

  test("shape: RECEIPT beats BUP and ParB in time on every high-r U side") {
    rows.filter(r => highR(r.dataset)).foreach { r =>
      assert(r.tReceiptMs < r.tBupMs, s"${r.dataset}: RECEIPT ${r.tReceiptMs}ms vs BUP ${r.tBupMs}ms")
      assert(r.tReceiptMs < r.tParBMs, s"${r.dataset}: RECEIPT ${r.tReceiptMs}ms vs ParB ${r.tParBMs}ms")
    }
  }

  test("shape: the dataflow baseline (ParB-Spark) DNFs where RECEIPT-Spark finishes") {
    val uRows = rows.filter(r => highR(r.dataset))
    uRows.foreach { r =>
      assert(r.tReceiptSparkMs > 0, s"${r.dataset}: RECEIPT-Spark did not run")
      assert(!r.parBSparkFinished,
        s"${r.dataset}: expected dataflow ParB to exceed its budget (ρ=${r.rhoParB} barriers)")
    }
  }

  test("shape: RECEIPT-Spark pays the same ρ as the shared-memory kernel") {
    rows.foreach { r =>
      if (r.rhoReceiptSpark > 0)
        assert(math.abs(r.rhoReceiptSpark - r.rhoReceipt) <= r.rhoReceipt / 2,
          s"${r.dataset}: ρ spark=${r.rhoReceiptSpark} local=${r.rhoReceipt}")
    }
  }
}
