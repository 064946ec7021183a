package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.bipartite.BipartiteGraph
import repro.core.SparkButterfly

/** Graph builders and graph queries that only tests use. */
object TestGraphs {

  /** Build from an edge sequence, deduplicating. */
  def fromEdges(nU: Int, nV: Int, edges: Iterable[(Int, Int)]): BipartiteGraph = {
    val packed = edges.iterator.map { case (u, v) =>
      require(u >= 0 && u < nU && v >= 0 && v < nV, s"edge ($u,$v) out of range ($nU,$nV)")
      (u.toLong << 32) | (v & 0xffffffffL)
    }.toArray
    BipartiteGraph.fromPacked(nU, nV, packed, dedup = true)
  }

  /** Complete bipartite graph K_{a,b}. */
  def complete(a: Int, b: Int): BipartiteGraph =
    fromEdges(a, b, for (u <- 0 until a; v <- 0 until b) yield (u, v))

  /** Uniform random bipartite graph (deduplicated), deterministic in seed. */
  def random(nU: Int, nV: Int, m: Int, seed: Long): BipartiteGraph = {
    val rnd = new java.util.Random(seed)
    val es  = Array.fill(m)(((rnd.nextInt(nU).toLong << 32) | rnd.nextInt(nV).toLong))
    BipartiteGraph.fromPacked(nU, nV, es, dedup = true)
  }

  /** Small random graph + its edge DataFrame. */
  def randomWithDF(spark: SparkSession, nU: Int, nV: Int, m: Int, seed: Long): (BipartiteGraph, DataFrame) = {
    val g = random(nU, nV, m, seed)
    (g, BipartiteGen.edgesDF(spark, g))
  }

  /** Per-vertex counts `(node, cnt)` of the dataflow count in combined id
    * space (non-zero only).
    */
  def countsDF(edges: DataFrame): DataFrame = SparkButterfly.aggregate(edges).where(col("node") >= 0)

  implicit class GraphOps(private val g: BipartiteGraph) extends AnyVal {
    import g._

    /** Iterate neighbours of `v` ∈ V, calling `f` for each `u`. */
    def foreachNbrV(v: Int)(f: Int => Unit): Unit = {
      var i = vOff(v)
      while (i < vOff(v + 1)) { f(vAdj(i)); i += 1 }
    }

    /** Edge list as packed longs `(u.toLong << 32) | v`, in CSR order. */
    def packedEdges: Array[Long] = {
      val out = new Array[Long](m)
      var u = 0; var k = 0
      while (u < nU) {
        var i = uOff(u)
        while (i < uOff(u + 1)) { out(k) = (u.toLong << 32) | (uAdj(i) & 0xffffffffL); k += 1; i += 1 }
        u += 1
      }
      out
    }

    /** Number of wedges with both endpoints in U: Σ_v C(d_v, 2). */
    def wedgesEndpointsU: Long = {
      var s = 0L; var v = 0
      while (v < nV) { val d = degV(v).toLong; s += d * (d - 1) / 2; v += 1 }
      s
    }

    /** Number of wedges with both endpoints in V: Σ_u C(d_u, 2). */
    def wedgesEndpointsV: Long = {
      var s = 0L; var u = 0
      while (u < nU) { val d = degU(u).toLong; s += d * (d - 1) / 2; u += 1 }
      s
    }
  }
}
