package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.bipartite.BipartiteGraph

/** DataFrame-level operations on bipartite edge sets `(u: Long, v: Long)`.
  * These are the relational building blocks shared by the Spark butterfly
  * counter and the Spark RECEIPT implementation.
  */
object BipartiteDF {

  /** Canonicalize: exactly the two columns `u`, `v` as longs, deduplicated. */
  def canonical(edges: DataFrame): DataFrame =
    edges.select(col("u").cast("long") as "u", col("v").cast("long") as "v").distinct()

  /** Per-`v` degrees: `(v, dv)`. */
  def degreesV(edges: DataFrame): DataFrame =
    edges.groupBy("v").agg(count(lit(1)) as "dv")

  /** Per-`u` degrees: `(u, du)`. */
  def degreesU(edges: DataFrame): DataFrame =
    edges.groupBy("u").agg(count(lit(1)) as "du")

  /** Σ_v C(d_v, 2): wedges with both endpoints in U. */
  def wedgesEndpointsU(edges: DataFrame): Long = {
    val w = degreesV(edges).agg(sum(col("dv") * (col("dv") - 1) / 2) as "w")
    longAt(w.collect()(0), 0)
  }

  /** Column `i` of a collected aggregate row as a long: sums arrive as
    * `Long`, `BigDecimal` or `Double` depending on the input type, and as
    * null over no rows (read as 0).
    */
  def longAt(r: Row, i: Int): Long = r.get(i) match {
    case null                    => 0L
    case l: Long                 => l
    case d: java.math.BigDecimal => d.longValueExact()
    case d: Double               => d.toLong
  }

  /** Collect a DataFrame of edges into a local [[BipartiteGraph]]; every
    * edge must lie in `[0, nU) × [0, nV)`.
    */
  def toLocal(edges: DataFrame, nU: Int, nV: Int): BipartiteGraph = {
    val packed = canonical(edges).collect().map { r =>
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
