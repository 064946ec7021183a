package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.BipartiteGen
import repro.harness.Tables

/** Reproduces **Table 2** of the paper (dataset statistics) on the six
  * synthetic "-lite" datasets: |U|, |V|, |E|, average degrees, total
  * butterflies ⋈_G, total wedges Λ_G, and the maximum tip number of both
  * sides. Prints the table and checks the structural properties the paper's
  * datasets exhibit. Paper-vs-measured numbers are recorded in
  * EXPERIMENTS.md.
  */
class Table2Bench extends AnyFunSuite {

  private lazy val rows = BipartiteGen.datasets.map(Tables.table2Row)

  test("Table 2: dataset statistics") {
    println("\n==== Table 2 (reproduction) ====")
    println(Tables.table2(rows))
  }

  test("Table 2 shape: U is always the higher-wedge side (paper labelling)") {
    rows.foreach(r => assert(r.wedgesU > r.wedgesV, r.name))
  }

  test("Table 2 shape: θmax_V exceeds θmax_U (V hubs share huge neighbourhoods)") {
    // In the paper, θmax_V ≫ θmax_U for every dataset because the few
    // V-side hubs survive to the very top of the V hierarchy.
    val ok = rows.count(r => r.thetaMaxV > r.thetaMaxU)
    assert(ok >= 4, s"only $ok/6 datasets have θmax_V > θmax_U")
  }

  test("Table 2 shape: butterflies and wedges are non-trivial on every dataset") {
    rows.foreach { r =>
      assert(r.butterflies > 100000L, s"${r.name}: too few butterflies")
      assert(r.wedgesU > 1000000L, s"${r.name}: too few wedges")
    }
  }
}
