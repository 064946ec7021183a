package repro.jobs

import repro.BipartiteGen
import repro.harness.Tables

/** spark-submit entrypoint reproducing Table 2 (dataset statistics).
  *
  * Usage: `spark-submit --class repro.jobs.Table2Stats repro.jar [dataset…]`
  * — with no arguments all six datasets are processed.
  */
object Table2Stats {
  def main(args: Array[String]): Unit = {
    val cfgs =
      if (args.isEmpty) BipartiteGen.datasets
      else args.toSeq.map(BipartiteGen.byName)
    println(Tables.table2(cfgs.map(Tables.table2Row)))
  }
}
