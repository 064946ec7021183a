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

  def run(g: BipartiteGraph, threads: Int): TipResult = {
    val t0 = System.nanoTime()
    val counts = ButterflyCounting.vertexPriority(g, threads)
    val t1 = System.nanoTime()

    val st = new PeelState(g, enableDGM = false)
    st.setSupports(counts.cntU)
    val pool = new WorkerPool(threads)
    val r = try { val update = new BatchUpdate(st, pool); peel(st, update(_, _), _ => true) } finally pool.close()
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
    val heap = new IndexedMinHeap(nU)
    var u = 0
    while (u < nU) { if (st.alive(u)) heap.push(u, st.sup.get(u)); u += 1 }

    val tips = Array.fill[Long](nU)(-1L)
    val buf = new Array[Int](nU)
    var rounds = 0L
    var wedges = 0L
    // the heap holds exactly the live vertices, each keyed by its support
    while (!heap.isEmpty && more(rounds)) {
      val minSup = heap.topKey
      var nB = 0
      while (!heap.isEmpty && heap.topKey == minSup) { buf(nB) = heap.pop(); nB += 1 }
      val batch = java.util.Arrays.copyOf(buf, nB)
      batch.foreach { b => tips(b) = minSup; st.markPeeled(b) }

      // one synchronization round; lower each distinct updated vertex once
      // to its settled support
      val (w, touched) = round(batch, minSup)
      wedges += w
      touched.foreach(u2 => heap.decrease(u2, st.sup.get(u2)))
      rounds += 1
    }
    TipResult(tips, PeelMetrics(0L, wedges, rounds, 0.0, 0.0))
  }
}
