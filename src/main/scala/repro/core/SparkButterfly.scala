package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

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
  * Contributions per aggregated wedge group `(sp, ep)` with multiplicity c:
  * `C(c,2)` butterflies to both same-side endpoints, and `c−1` to the mid
  * vertex of every wedge in the group (opposite side).
  */
object SparkButterfly {

  final case class Result(cntU: Array[Long], cntV: Array[Long], wedgeRows: Long) {
    def totalButterflies: Long = cntU.sum / 2
  }

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

  /** Per-vertex counts `(node, cnt)` in combined id space (non-zero only). */
  def countsDF(edges: DataFrame): DataFrame = countsOf(wedges(edges))

  /** The per-vertex aggregation of a priority-filtered wedge table `w`. */
  private def countsOf(w: DataFrame): DataFrame = {
    val pairC = w.groupBy("sp", "ep").agg(count(lit(1)) as "c")
    val same = pairC
      .select(col("sp") as "node", (col("c") * (col("c") - 1) / 2) as "b")
      .union(pairC.select(col("ep") as "node", (col("c") * (col("c") - 1) / 2) as "b"))
    val mid = w
      .join(pairC, Seq("sp", "ep"))
      .select(col("mp") as "node", (col("c") - 1) as "b")
    same.union(mid)
      .groupBy("node")
      .agg(sum("b") as "cnt")
      .where(col("cnt") > 0)
  }

  /** Collected per-vertex counts for both sides plus the wedge-row metric
    * (the dataflow analogue of Λ^pvBcnt: rows produced by the wedge join).
    */
  def perVertex(spark: SparkSession, edges: DataFrame, nU: Int, nV: Int): Result = {
    val w = wedges(edges).cache()
    val wedgeRows = w.count()
    val cntU = new Array[Long](nU)
    val cntV = new Array[Long](nV)
    countsOf(w).collect().foreach { r =>
      val node = r.getLong(0)
      val cnt = BipartiteDF.longAt(r, 1)
      if (node % 2 == 0) cntU((node / 2).toInt) = cnt else cntV(((node - 1) / 2).toInt) = cnt
    }
    w.unpersist()
    Result(cntU, cntV, wedgeRows)
  }
}
