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
    val update = new BatchUpdate(st, threads)
    val r = try peel(st, update(_, _), _ => true) finally update.close()
    val t2 = System.nanoTime()
    TipResult(
      r.tips,
      PeelMetrics(counts.wedges, r.metrics.peelWedges, r.metrics.rounds, (t1 - t0) / 1e6, (t2 - t1) / 1e6)
    )
  }

  /** The min-support batch loop, on any substrate (threads here, Spark jobs
    * in [[repro.core.SparkParB]]). While a vertex of `st` is live and
    * `more(rounds so far)` holds, each round marks every live vertex at the
    * minimum support `s` peeled with tip `s`, then has `round(batch, s)`
    * apply the batch's decrements capped at `s`; `round` returns the wedges
    * traversed and the distinct live vertices whose support changed.
    * Returns tips (-1 for vertices not reached), peel wedges and rounds;
    * timing is the caller's.
    */
  def peel(st: PeelState, round: (Array[Int], Long) => (Long, Array[Int]),
           more: Long => Boolean): TipResult = {
    val nU = st.g.nU
    val heap = new LongMinHeap(st.aliveCount + 16)
    var u = 0
    while (u < nU) { if (st.alive(u)) heap.push(pack(st.sup.get(u), u)); u += 1 }

    val tips = Array.fill[Long](nU)(-1L)
    val buf = new Array[Int](nU)
    var rounds = 0L
    var wedges = 0L
    while (st.aliveCount > 0 && more(rounds)) {
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
          heap.pop(); buf(nB) = cand; nB += 1
        } else gathering = false
      }
      require(nB > 0, "heap exhausted with vertices remaining")
      val batch = java.util.Arrays.copyOf(buf, nB)
      batch.foreach { b => tips(b) = minSup; st.markPeeled(b) }

      // one synchronization round; push each distinct updated vertex once
      // with its settled support
      val (w, touched) = round(batch, minSup)
      wedges += w
      touched.foreach(u2 => heap.push(pack(st.sup.get(u2), u2)))
      rounds += 1
    }
    TipResult(tips, PeelMetrics(0L, wedges, rounds, 0.0, 0.0))
  }
}
