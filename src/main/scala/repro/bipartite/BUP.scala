package repro.bipartite

/** Metrics common to the peeling kernels.
  *
  * @param cntWedges  wedges traversed by butterfly counting (initial pvBcnt
  *                   plus, for RECEIPT, any HUC re-counts)
  * @param peelWedges wedges traversed by peeling `update` calls
  * @param rounds     synchronization rounds ρ: peeling iterations with a
  *                   barrier (batch rounds for ParB, CD iterations for
  *                   RECEIPT; 0 extra for FD, whose tasks sync only once)
  */
final case class PeelMetrics(
    cntWedges: Long,
    peelWedges: Long,
    rounds: Long,
    cntTimeMs: Double,
    peelTimeMs: Double
) {
  def totalWedges: Long = cntWedges + peelWedges
  def totalTimeMs: Double = cntTimeMs + peelTimeMs
}

final case class TipResult(tips: Array[Long], metrics: PeelMetrics)

/** Sequential Bottom-Up Peeling (alg. 2) — the paper's exact baseline and
  * also the inner engine RECEIPT FD applies to each induced subgraph.
  *
  * Minimum-support retrieval uses an [[IndexedMinHeap]]: one entry per
  * live vertex, keyed by its support, lowered in place by decrease-key on
  * every update, ties broken by vertex id (the paper's implementation note:
  * a k-way min-heap beat both Julienne-style bucketing and Fibonacci heaps
  * in practice; a binary heap has the same asymptotics as k-way and is the
  * natural Scala analogue).
  */
object BUP {

  /** Full tip decomposition of `g`'s U side: counts butterflies on one
    * thread, then peels.
    */
  def run(g: BipartiteGraph): TipResult = {
    val t0 = System.nanoTime()
    val counts = ButterflyCounting.vertexPriority(g)
    val t1 = System.nanoTime()
    val members = Array.tabulate(g.nU)(identity)
    val r = peel(g, counts.cntU, members, enableDGM = false)
    TipResult(
      r.tips,
      r.metrics.copy(cntWedges = counts.wedges, cntTimeMs = (t1 - t0) / 1e6)
    )
  }

  /** Peel `members ⊆ U` of `g` with supports initialized from `initSup`
    * (indexed by vertex id). Vertices outside `members` are treated as
    * absent — callers pass the full vertex set (baseline BUP, FD's
    * [[peelSubset]]) or an induced subgraph whose other U vertices have
    * empty adjacency.
    * Returns tips (entries for non-members are -1).
    */
  def peel(g: BipartiteGraph, initSup: Array[Long], members: Array[Int],
           enableDGM: Boolean): TipResult = {
    val t0 = System.nanoTime()
    val st = new PeelState(g, enableDGM)
    val inSet = new Array[Boolean](g.nU)
    members.foreach(inSet(_) = true)
    // Non-members must not receive updates nor be popped: kill their flags.
    var u = 0
    while (u < g.nU) { if (!inSet(u)) st.alive(u) = false; u += 1 }

    val heap = new IndexedMinHeap(g.nU)
    members.foreach { v => st.sup.set(v, initSup(v)); heap.push(v, initSup(v)) }

    val tips = Array.fill[Long](g.nU)(-1L)
    val wdg = new Array[Int](g.nU)
    val touched = new Array[Int](g.nU)
    var peelWedges = 0L

    while (!heap.isEmpty) {
      val s0 = heap.topKey
      val u0 = heap.pop()
      tips(u0) = s0
      st.markPeeled(u0)
      val w = st.update(u0, s0, wdg, touched, heap.decrease)
      peelWedges += w
      st.chargeWedges(w)
    }
    val t1 = System.nanoTime()
    TipResult(tips, PeelMetrics(0L, peelWedges, 0L, 0.0, (t1 - t0) / 1e6))
  }

  /** One FD task of alg. 4, shared by both RECEIPT engines: exact [[peel]]
    * of one subset's induced subgraph `(U_i, V)` seeded from `⋈^init`, on
    * dense local ids, so it takes O(|U_i| + |V_i| + m_i) space. Local ids
    * keep ascending global order on both sides, and with it the heap's
    * tie-breaks: tips, DGM compactions and wedges equal a global-id peel.
    *
    * @param members the subset's U vertices, ascending
    * @param initSup `⋈^init` of each member, aligned with `members`
    * @param edges   the induced edges `(u << 32) | v` in global ids, ascending
    * @return each member's tip number, aligned with `members`, and the
    *         wedges traversed
    */
  def peelSubset(members: Array[Int], initSup: Array[Long], edges: Array[Long],
                 enableDGM: Boolean): (Array[Long], Long) = {
    val vs = new Array[Int](edges.length)
    for (k <- edges.indices) vs(k) = edges(k).toInt
    java.util.Arrays.sort(vs)
    var nV = 0
    for (k <- vs.indices) if (nV == 0 || vs(k) != vs(nV - 1)) { vs(nV) = vs(k); nV += 1 }
    val local = new Array[Long](edges.length)
    var lu = 0
    for (k <- edges.indices) {
      while (members(lu) != (edges(k) >>> 32).toInt) lu += 1
      local(k) = (lu.toLong << 32) | java.util.Arrays.binarySearch(vs, 0, nV, edges(k).toInt)
    }
    val g = BipartiteGraph.fromPacked(members.length, nV, local, dedup = false)
    val r = peel(g, initSup, Array.range(0, members.length), enableDGM)
    (r.tips, r.metrics.peelWedges)
  }
}
