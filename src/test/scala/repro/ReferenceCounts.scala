package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.bipartite.{BipartiteGraph, ButterflyCounts, Peeling}
import repro.TestGraphs.GraphOps

/** Definition-level butterfly counts that the tests compare the fast
  * counting kernels against.
  */
object ReferenceCounts {

  /** Oracle: counts via same-side pair common-neighbour enumeration.
    * ⋈_u = Σ_{u'≠u} C(|N_u ∩ N_{u'}|, 2); only for small test graphs.
    */
  def bruteForce(g: BipartiteGraph): ButterflyCounts = {
    def side(nS: Int, foreachNbr: (Int, Int => Unit) => Unit, foreachBack: (Int, Int => Unit) => Unit): Array[Long] = {
      val out = new Array[Long](nS)
      val common = new scala.collection.mutable.HashMap[Int, Int]()
      var u = 0
      while (u < nS) {
        common.clear()
        foreachNbr(u, v => foreachBack(v, u2 => if (u2 != u) common(u2) = common.getOrElse(u2, 0) + 1))
        out(u) = common.valuesIterator.map(c => Peeling.choose2(c.toLong)).sum
        u += 1
      }
      out
    }
    val cu = side(g.nU, (u, f) => g.foreachNbrU(u)(f), (v, f) => g.foreachNbrV(v)(f))
    val cv = side(g.nV, (v, f) => g.foreachNbrV(v)(f), (u, f) => g.foreachNbrU(u)(f))
    ButterflyCounts(cu, cv, 0L)
  }

  /** Naive pair-join counts for the U side — `(u, cnt)`, non-zero rows only.
    * O(Σ_v d_v²) shuffle; exists as an oracle (mirrors the DuckDB SQL used
    * in tests), not for production use on hubby graphs.
    */
  def naiveCountsU(edges: DataFrame): DataFrame = {
    val e1 = edges.select(col("u") as "u1", col("v"))
    val e2 = edges.select(col("u") as "u2", col("v"))
    val pairs = e1.join(e2, "v").where(col("u1") < col("u2"))
      .groupBy("u1", "u2").agg(count(lit(1)) as "c")
      .where(col("c") >= 2)
    pairs.select(col("u1") as "u", (col("c") * (col("c") - 1) / 2) as "b")
      .union(pairs.select(col("u2") as "u", (col("c") * (col("c") - 1) / 2) as "b"))
      .groupBy("u").agg(sum("b") as "cnt")
  }
}
