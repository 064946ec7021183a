package repro.bipartite

/** Immutable CSR representation of an unweighted bipartite graph
  * `G(W = (U, V), E)`.
  *
  * `U` vertices are `0 until nU`, `V` vertices are `0 until nV`; both sides
  * are stored as adjacency in CSR form (`uOff`/`uAdj` maps a `u` to its `V`
  * neighbours, `vOff`/`vAdj` the reverse). Edges are deduplicated at build
  * time. All local kernels (counting, BUP, ParB, RECEIPT) run on this
  * structure; the Spark layer converts to/from DataFrames of `(u, v)` rows.
  */
final class BipartiteGraph(
    val nU: Int,
    val nV: Int,
    val uOff: Array[Int],
    val uAdj: Array[Int],
    val vOff: Array[Int],
    val vAdj: Array[Int]
) {

  /** Number of (deduplicated) edges. */
  def m: Int = uAdj.length

  /** Degree of `u` ∈ U. */
  @inline def degU(u: Int): Int = uOff(u + 1) - uOff(u)

  /** Degree of `v` ∈ V. */
  @inline def degV(v: Int): Int = vOff(v + 1) - vOff(v)

  /** Iterate neighbours of `u` ∈ U, calling `f` for each `v`. */
  @inline def foreachNbrU(u: Int)(f: Int => Unit): Unit = {
    var i = uOff(u)
    while (i < uOff(u + 1)) { f(uAdj(i)); i += 1 }
  }

  /** Per-vertex wedge counts `w[u]` = wedges of G with endpoint `u` ∈ U,
    * i.e. Σ_{v∈N_u} (d_v - 1). Used by RECEIPT CD range determination.
    */
  def wedgeEndpointCountU: Array[Long] = {
    val w = new Array[Long](nU)
    var u = 0
    while (u < nU) {
      var s = 0L
      foreachNbrU(u)(v => s += degV(v) - 1)
      w(u) = s
      u += 1
    }
    w
  }

  /** Peel-cost proxy Σ_{v∈N_u} d_v per u (the paper's wedge-traversal bound
    * for peeling `u`), on the full graph.
    */
  def peelCostU: Array[Long] = {
    val w = new Array[Long](nU)
    var u = 0
    while (u < nU) {
      var s = 0L
      foreachNbrU(u)(v => s += degV(v))
      w(u) = s
      u += 1
    }
    w
  }

  /** Counting-cost bound Σ_{(u,v)∈E} min(d_u, d_v) (Chiba–Nishizeki). */
  def countCost: Long = {
    var s = 0L; var u = 0
    while (u < nU) {
      val du = degU(u)
      foreachNbrU(u)(v => s += math.min(du, degV(v)))
      u += 1
    }
    s
  }

  /** Subgraph keeping only `U` vertices with `aliveU(u)`; vertex ids are
    * preserved (dead vertices keep empty adjacency). V side shrinks
    * accordingly. The program itself never copies a graph this way; tests
    * and the benchmark's FD replay use it to build reference inputs.
    */
  def filterU(aliveU: Array[Boolean]): BipartiteGraph = {
    val es = new scala.collection.mutable.ArrayBuffer[Long](m)
    var u = 0
    while (u < nU) {
      if (aliveU(u)) foreachNbrU(u)(v => es += ((u.toLong << 32) | (v & 0xffffffffL)))
      u += 1
    }
    BipartiteGraph.fromPacked(nU, nV, es.toArray, dedup = false)
  }

  /** Mirror image of the graph: swaps the roles of U and V. */
  def transpose: BipartiteGraph = new BipartiteGraph(nV, nU, vOff, vAdj, uOff, uAdj)
}

object BipartiteGraph {

  /** Build from packed `(u << 32 | v)` edges. */
  def fromPacked(nU: Int, nV: Int, packedIn: Array[Long], dedup: Boolean): BipartiteGraph = {
    val packed =
      if (!dedup) packedIn
      else {
        java.util.Arrays.sort(packedIn)
        var n = 0; var i = 0
        while (i < packedIn.length) {
          if (n == 0 || packedIn(i) != packedIn(n - 1)) { packedIn(n) = packedIn(i); n += 1 }
          i += 1
        }
        java.util.Arrays.copyOf(packedIn, n)
      }
    val uOff = new Array[Int](nU + 1)
    val vOff = new Array[Int](nV + 1)
    var i = 0
    while (i < packed.length) {
      val u = (packed(i) >>> 32).toInt; val v = packed(i).toInt
      uOff(u + 1) += 1; vOff(v + 1) += 1
      i += 1
    }
    i = 0
    while (i < nU) { uOff(i + 1) += uOff(i); i += 1 }
    i = 0
    while (i < nV) { vOff(i + 1) += vOff(i); i += 1 }
    val uAdj = new Array[Int](packed.length)
    val vAdj = new Array[Int](packed.length)
    val uFill = java.util.Arrays.copyOf(uOff, nU)
    val vFill = java.util.Arrays.copyOf(vOff, nV)
    i = 0
    while (i < packed.length) {
      val u = (packed(i) >>> 32).toInt; val v = packed(i).toInt
      uAdj(uFill(u)) = v; uFill(u) += 1
      vAdj(vFill(v)) = u; vFill(v) += 1
      i += 1
    }
    new BipartiteGraph(nU, nV, uOff, uAdj, vOff, vAdj)
  }
}
