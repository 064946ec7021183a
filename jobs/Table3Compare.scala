package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.BipartiteGen
import repro.harness.Tables

/** spark-submit entrypoint reproducing Table 3 (t / Λ / ρ comparison of
  * BUP, ParB and RECEIPT across all datasets and both peeled sides).
  *
  * Usage: `spark-submit --class repro.jobs.Table3Compare repro.jar [rows…]`
  * where each row is a dataset+side tag like `TrU` or `ItV`; with no
  * arguments all 12 rows are produced.
  */
object Table3Compare {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("receipt-table3")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")

    val tags =
      if (args.nonEmpty) args.toSeq
      else BipartiteGen.datasets.flatMap(c => Seq(c.name + "U", c.name + "V"))

    val rows = tags.map { tag =>
      val (name, side) = (tag.dropRight(1), tag.takeRight(1))
      Tables.table3Row(spark, BipartiteGen.byName(name), side)
    }

    println("t (s):")
    println("| dataset | pvBcnt | BUP | ParB | RECEIPT | RECEIPT-Spark | ParB-Spark |")
    println("|---|---|---|---|---|---|---|")
    rows.foreach(r => println(r.markdownTime))
    println("Λ (millions of wedges):")
    println("| dataset | pvBcnt | BUP | RECEIPT | RECEIPT-Spark |")
    println("|---|---|---|---|---|")
    rows.foreach(r => println(r.markdownWedges))
    println("ρ (synchronization rounds):")
    println("| dataset | ParB | RECEIPT | RECEIPT-Spark |")
    println("|---|---|---|---|")
    rows.foreach(r => println(r.markdownRho))

    spark.stop()
  }
}
