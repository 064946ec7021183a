package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.bipartite.BipartiteGraph

/** DataFrame-level operations on bipartite edge sets `(u: Long, v: Long)`.
  * These are the relational building blocks shared by the Spark butterfly
  * counter and the Spark RECEIPT implementation.
  */
object BipartiteDF {

  /** Exactly the two columns `u`, `v`, as longs. */
  private def longUV(edges: DataFrame): DataFrame =
    edges.select(col("u").cast("long") as "u", col("v").cast("long") as "v")

  /** Canonicalize: exactly the two columns `u`, `v` as longs, deduplicated. */
  def canonical(edges: DataFrame): DataFrame = longUV(edges).distinct()

  /** Per-`v` degrees: `(v, dv)`. */
  def degreesV(edges: DataFrame): DataFrame =
    edges.groupBy("v").agg(count(lit(1)) as "dv")

  /** Per-`u` degrees: `(u, du)`. */
  def degreesU(edges: DataFrame): DataFrame =
    edges.groupBy("u").agg(count(lit(1)) as "du")

  /** `C(c, 2)` of a long column, in exact integer arithmetic. */
  def choose2(c: Column): Column = shiftright(c * (c - 1), 1)

  /** Collect a DataFrame of edges into a local [[BipartiteGraph]]; every
    * edge must lie in `[0, nU) × [0, nV)`. Duplicate edges are dropped.
    */
  def toLocal(edges: DataFrame, nU: Int, nV: Int): BipartiteGraph = {
    val packed = longUV(edges).collect().map { r =>
      val u = r.getLong(0); val v = r.getLong(1)
      require(u >= 0 && u < nU && v >= 0 && v < nV, s"edge ($u,$v) out of range ($nU,$nV)")
      (u << 32) | v
    }
    BipartiteGraph.fromPacked(nU, nV, packed, dedup = true)
  }

  /** Mirror of the edge set (swap sides) — decomposing V is decomposing U of
    * the mirrored graph, as the paper does for the "*V" table rows.
    */
  def transposed(edges: DataFrame): DataFrame =
    edges.select(col("v") as "u", col("u") as "v")
}
