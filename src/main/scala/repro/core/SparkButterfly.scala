package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.bipartite.ButterflyCounts

/** Per-vertex butterfly counting as a Catalyst dataflow — alg. 1 of the
  * paper expressed relationally.
  *
  * The vertex-priority rule (wedges `(sp, mp, ep)` are generated only when
  * the endpoint `ep` strictly precedes both `sp` and `mp` in the
  * degree-descending order) becomes a join predicate over degree-annotated
  * combined edges, which bounds the shuffled wedge rows by
  * `O(Σ_{(u,v)∈E} min(d_u, d_v))` — the same Chiba–Nishizeki bound the
  * shared-memory implementation enjoys, and the reason a hub vertex does
  * not explode the shuffle the way the naive pair join does.
  *
  * Contributions per wedge group `(sp, ep)` with multiplicity c:
  * `C(c,2)` butterflies to both same-side endpoints, and `c−1` to the mid
  * vertex of every wedge in the group (opposite side).
  */
object SparkButterfly {

  /** Combined directed edge table with node ids `2*u` (U side) and `2*v+1`
    * (V side) and degree annotations on both endpoints.
    */
  private def combinedEdges(edges: DataFrame): DataFrame = {
    val du = BipartiteDF.degreesU(edges)
    val dv = BipartiteDF.degreesV(edges)
    val e = edges
      .join(du, "u").join(dv, "v")
      .select(col("u") * 2 as "cu", col("v") * 2 + 1 as "cv", col("du"), col("dv"))
    val fwd = e.select(col("cu") as "x", col("cv") as "y", col("du") as "dx", col("dv") as "dy")
    val bwd = e.select(col("cv") as "x", col("cu") as "y", col("dv") as "dx", col("du") as "dy")
    fwd.union(bwd)
  }

  /** Priority-filtered wedges `(sp, mp, ep)` in combined id space. */
  def wedges(edges: DataFrame): DataFrame = {
    val comb = combinedEdges(edges)
    val a = comb.select(col("x") as "sp", col("y") as "mp", col("dx") as "dsp", col("dy") as "dmp")
    val b = comb.select(col("x") as "mp2", col("y") as "ep", col("dy") as "dep")
    // strict precedence: higher degree first, ties broken by smaller id
    val epBeforeMp = (col("dep") > col("dmp")) || (col("dep") === col("dmp") && col("ep") < col("mp"))
    val epBeforeSp = (col("dep") > col("dsp")) || (col("dep") === col("dsp") && col("ep") < col("sp"))
    a.join(b, col("mp") === col("mp2"))
      .where(epBeforeMp && epBeforeSp)
      .select("sp", "mp", "ep")
  }

  /** Node id of the row of [[aggregate]] that counts the wedge rows. */
  private val WedgeRowsNode = -1L

  /** The per-vertex aggregation of the priority-filtered wedges of `edges`,
    * plus one row `(WedgeRowsNode, wedge rows)`. A window gives each wedge
    * its group's multiplicity c, and each wedge row then adds twice its
    * share: `c−1` to `sp` and to `ep` (c rows sum to `2·C(c,2)`), `2(c−1)`
    * to `mp` and 2 to the wedge-row total. Every sum is even and is halved
    * exactly, so the wedges are generated once and never joined back.
    */
  private[repro] def aggregate(edges: DataFrame): DataFrame = {
    val c = count(lit(1)).over(Window.partitionBy("sp", "ep"))
    def share(node: Column, twice: Column) = struct(node as "node", twice as "twice")
    wedges(edges).withColumn("c", c)
      .select(explode(array(
        share(col("sp"), col("c") - 1),
        share(col("ep"), col("c") - 1),
        share(col("mp"), (col("c") - 1) * 2),
        share(lit(WedgeRowsNode), lit(2L)))) as "s")
      .groupBy(col("s.node") as "node")
      .agg(shiftright(sum(col("s.twice")), 1) as "cnt")
      .where(col("cnt") > 0)
  }

  /** Per-vertex counts for both sides, collected by one Spark job, with the
    * wedge rows as the wedge metric (the dataflow analogue of Λ^pvBcnt:
    * rows produced by the wedge join).
    */
  def perVertex(edges: DataFrame, nU: Int, nV: Int): ButterflyCounts = {
    val cntU = new Array[Long](nU)
    val cntV = new Array[Long](nV)
    var wedgeRows = 0L
    aggregate(edges).collect().foreach { r =>
      val node = r.getLong(0)
      val cnt = r.getLong(1)
      if (node == WedgeRowsNode) wedgeRows = cnt
      else if (node % 2 == 0) cntU((node / 2).toInt) = cnt
      else cntV(((node - 1) / 2).toInt) = cnt
    }
    ButterflyCounts(cntU, cntV, wedgeRows)
  }
}
