package repro.bipartite

/** ParB — parallel bottom-up peeling in the style of ParButterfly's BATCH
  * mode (Shi & Shun) as re-implemented by the RECEIPT paper for its
  * baseline comparison: every round peels *all* vertices whose support
  * equals the current minimum, in parallel, with a thread barrier per round.
  *
  * ρ (synchronization rounds) is the number of such rounds; the wedge
  * traversal is identical to BUP's since each vertex is still peeled exactly
  * once over the full graph (no DGM — the baseline has none).
  */
object ParB {
  import Peeling._

  def run(g: BipartiteGraph, threads: Int): TipResult = {
    val t0 = System.nanoTime()
    val counts = ButterflyCounting.vertexPriority(g, threads)
    val t1 = System.nanoTime()

    val st = new PeelState(g, enableDGM = false)
    st.setSupports(counts.cntU)

    val heap = new LongMinHeap(g.nU + 16)
    var u = 0
    while (u < g.nU) { heap.push(pack(counts.cntU(u), u)); u += 1 }

    val tips = Array.fill[Long](g.nU)(-1L)
    var remaining = g.nU
    var rounds = 0L
    var peelWedges = 0L
    val update = new BatchUpdate(st, threads)
    val batch = new Array[Int](g.nU)

    try while (remaining > 0) {
      // gather the batch: all live vertices at the current minimum support
      // Supports only decrease and a vertex is re-pushed exactly when its
      // support changes, so at most one entry per vertex matches its live
      // support — stale entries are strictly larger and get discarded.
      var nB = 0
      var minSup = -1L
      var gathering = true
      while (gathering && !heap.isEmpty) {
        val top = heap.peek
        val cand = unpackId(top)
        val cSup = unpackSup(top)
        if (!st.alive(cand) || st.sup.get(cand) != cSup) { heap.pop(); () } // stale
        else if (minSup < 0 || cSup == minSup) {
          if (minSup < 0) minSup = cSup
          heap.pop(); batch(nB) = cand; nB += 1
        } else gathering = false
      }
      require(nB > 0, "heap exhausted with vertices remaining")
      var i = 0
      while (i < nB) { tips(batch(i)) = minSup; st.markPeeled(batch(i)); i += 1 }
      remaining -= nB

      // parallel update with a barrier per round; push each distinct
      // updated vertex once with its settled support
      val (w, touched) = update(batch, nB, minSup)
      peelWedges += w
      touched.foreach(u2 => heap.push(pack(st.sup.get(u2), u2)))
      rounds += 1
    } finally update.close()
    val t2 = System.nanoTime()
    TipResult(
      tips,
      PeelMetrics(counts.wedges, peelWedges, rounds, (t1 - t0) / 1e6, (t2 - t1) / 1e6)
    )
  }
}
