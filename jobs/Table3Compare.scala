package repro.jobs

import org.apache.spark.sql.SparkSession
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
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("receipt-table3")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")

    val tags = if (args.nonEmpty) args.toSeq else Tables.table3Tags
    println(Tables.table3(tags.map(Tables.table3Row(spark, _))))

    spark.stop()
  }
}
