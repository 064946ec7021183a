package repro.bipartite

/** Shared-memory RECEIPT (algs. 3 + 4) — the paper's algorithm verbatim:
  *
  *  - **CD** partitions U into ≤ P+1 subsets of non-overlapping tip-number
  *    ranges. Each peeling iteration removes *every* live vertex whose
  *    support falls inside the current range; upper bounds come from a
  *    support-histogram prefix-sum over per-vertex wedge counts with two-way
  *    adaptive targeting (dynamic `tgt`, overshoot scaling `s_i ≤ 1`).
  *  - **HUC**: when the stored wedge cost of peeling the active set exceeds
  *    the Chiba–Nishizeki re-count bound, the active set is deleted without
  *    computing updates and butterflies are re-counted on the live subgraph,
  *    in place on the rank-ordered structure of the initial count.
  *  - **DGM**: V-adjacency compaction amortized against traversed wedges
  *    (see [[PeelState.chargeWedges]]).
  *  - **FD** peels each subset exactly with [[BUP.peelSubset]] on the
  *    subgraph induced by `(U_i, V)`, supports seeded from `⋈^init`;
  *    the task list ([[fdTasks]]) is in LPT order (wedge-count proxy,
  *    descending), drained by a dynamic queue of `threads` workers.
  */
object ReceiptLocal {

  final case class Config(
      P: Int = 15,
      threads: Int = Runtime.getRuntime.availableProcessors(),
      enableHUC: Boolean = true,
      enableDGM: Boolean = true
  )

  final case class Metrics(
      cntInitWedges: Long,
      hucWedges: Long,
      cdPeelWedges: Long,
      fdWedges: Long,
      rounds: Long,
      subsets: Int,
      hucTriggers: Int,
      cntTimeMs: Double,
      cdTimeMs: Double,
      hucTimeMs: Double, // part of cdTimeMs
      fdTimeMs: Double
  ) {
    def cntWedges: Long = cntInitWedges + hucWedges
    def totalWedges: Long = cntWedges + cdPeelWedges + fdWedges
    def totalTimeMs: Double = cntTimeMs + cdTimeMs + fdTimeMs
  }

  final case class CDResult(
      subsetOf: Array[Int],      // u -> subset id (0-based)
      supInit: Array[Long],      // ⋈^init_u
      lo: Array[Long],           // θ(i) per subset
      hi: Array[Long],           // θ(i+1) per subset (exclusive)
      subsetWedgeW: Array[Long], // Σ_{u∈U_i} w[u], the FD scheduling proxy
      cntInitWedges: Long,
      hucWedges: Long,
      peelWedges: Long,
      rounds: Long,
      hucTriggers: Int,
      cntTimeMs: Double,
      peelTimeMs: Double,
      hucTimeMs: Double          // re-count time, part of peelTimeMs
  ) { def subsets: Int = lo.length }

  final case class Result(tips: Array[Long], metrics: Metrics, cd: CDResult)

  def run(g: BipartiteGraph, cfg: Config = Config()): Result = {
    val cd = coarseDecomposition(g, cfg)
    val t0 = System.nanoTime()
    val (tips, fdWedges) = fineDecomposition(g, cd, cfg)
    result(tips, cd, fdWedges, fdTimeMs = (System.nanoTime() - t0) / 1e6)
  }

  /** Assembles a run's result from its CD and FD outputs (either substrate). */
  private[repro] def result(tips: Array[Long], cd: CDResult, fdWedges: Long, fdTimeMs: Double): Result =
    Result(
      tips,
      Metrics(
        cntInitWedges = cd.cntInitWedges, hucWedges = cd.hucWedges,
        cdPeelWedges = cd.peelWedges, fdWedges = fdWedges,
        rounds = cd.rounds, subsets = cd.subsets, hucTriggers = cd.hucTriggers,
        cntTimeMs = cd.cntTimeMs, cdTimeMs = cd.peelTimeMs, hucTimeMs = cd.hucTimeMs,
        fdTimeMs = fdTimeMs
      ),
      cd
    )

  // ---------------------------------------------------------------- CD ----

  /** What a CD substrate supplies to the alg. 3 driver; everything else —
    * ranges, `⋈^init`, the HUC decision, bookkeeping — is the driver's.
    */
  trait CDRounds {
    /** Cost of peeling live vertex `u` now, weighed by HUC against the
      * re-count bound (called before the active set is marked peeled).
      */
    def peelCost(u: Int): Long

    /** Applies the capped support decrements of peeling `batch` (already
      * marked peeled). Returns the wedges traversed and the distinct live
      * vertices whose support changed.
      */
    def peel(batch: Array[Int], capFloor: Long): (Long, Array[Int])

    /** Per-U butterfly counts of the live graph (the U vertices alive in
      * the driver's state) and the wedges the count traversed.
      */
    def recount(): (Array[Long], Long)
  }

  /** Shared-memory CD: vertex-priority counting, then the alg. 3 driver
    * with threaded batch peel rounds and in-place re-counts of the live
    * graph. One rank-ordered [[ButterflyCounting.Combined]] serves the
    * initial count and every re-count (each first deletes the peeled U
    * vertices from it), and one pool runs counts and peel rounds. Each
    * count lands in the structure's own arrays, which the next count
    * overwrites; the driver copies it into `st` before that.
    */
  def coarseDecomposition(g: BipartiteGraph, cfg: Config): CDResult = {
    val pool = new WorkerPool(cfg.threads)
    try {
      val tCnt0 = System.nanoTime()
      val comb = new ButterflyCounting.Combined(g, cfg.threads)
      val counts = comb.count(pool)
      val cntTimeMs = (System.nanoTime() - tCnt0) / 1e6

      val st = new PeelState(g, cfg.enableDGM)
      st.setSupports(counts.cntU)
      val update = new BatchUpdate(st, pool)
      val rounds = new CDRounds {
        def peelCost(u: Int): Long = st.storedPeelCost(u) // stale until DGM compacts
        def peel(batch: Array[Int], capFloor: Long): (Long, Array[Int]) = update(batch, capFloor)
        def recount(): (Array[Long], Long) = {
          comb.retainU(st.alive)
          val rc = comb.count(pool)
          (rc.cntU, rc.wedges)
        }
      }
      coarseDecomposition(st, cfg.P, cfg.enableHUC, counts.wedges, cntTimeMs, rounds)
    } finally pool.close()
  }

  /** Alg. 3 on any substrate: partitions the live vertices of `st` (supports
    * seeded with the initial counts) into ≤ P+1 subsets of non-overlapping
    * support ranges. Each range comes from [[findHi]] with the two-way
    * adaptive target; each active set is either peeled or, under HUC when
    * its peel cost exceeds the re-count bound, dropped and re-counted.
    *
    * The driver keeps the live U ids in one ascending array, compacted at
    * each range start and after each re-count, so every scan it makes (the
    * active set, `⋈^init`, `findHi`'s input, the re-count's supports and
    * bound) costs O(live) and its buffers are allocated once per call.
    */
  def coarseDecomposition(st: PeelState, P: Int, enableHUC: Boolean,
                          cntInitWedges: Long, cntTimeMs: Double, sub: CDRounds): CDResult = {
    val t0 = System.nanoTime()
    val g = st.g
    val w = g.wedgeEndpointCountU // static wedge-count proxy, per paper
    val subsetOf = Array.fill(g.nU)(-1)
    val supInit = new Array[Long](g.nU)
    val loBuf, hiBuf, swBuf = scala.collection.mutable.ArrayBuffer[Long]()

    val live = Array.range(0, g.nU)
    var nLive = g.nU
    def compactLive(): Unit = {
      var n = 0; var k = 0
      while (k < nLive) { if (st.alive(live(k))) { live(n) = live(k); n += 1 }; k += 1 }
      nLive = n
    }
    compactLive()
    // the vertices among `ids(0 until n)` with support below `hi`
    val activeBuf = new Array[Int](g.nU)
    def below(ids: Array[Int], n: Int, hi: Long): Array[Int] = {
      var nA = 0; var k = 0
      while (k < n) { if (st.sup.get(ids(k)) < hi) { activeBuf(nA) = ids(k); nA += 1 }; k += 1 }
      java.util.Arrays.copyOf(activeBuf, nA)
    }
    // Chiba–Nishizeki re-count bound: Σ_{(u,v)∈E, u live} min(d_u, curDeg_v)
    def recountCost(): Long = {
      var s = 0L; var k = 0
      while (k < nLive) {
        val u = live(k); val du = g.degU(u)
        var e = g.uOff(u)
        while (e < g.uOff(u + 1)) { s += math.min(du, st.curDegV(g.uAdj(e))); e += 1 }
        k += 1
      }
      s
    }
    val selSup, selW = new Array[Long](g.nU)

    var hucWedges, hucNs, peelWedges, rounds = 0L
    var hucTriggers = 0
    var cRcntCache = recountCost()

    var lo = 0L
    var i = 0
    var scale = 1.0
    var remainingWedges = w.sum

    while (st.aliveCount > 0) {
      compactLive()
      // ---- ⋈^init snapshot: support before any vertex of U_i is peeled ----
      var k = 0
      while (k < nLive) { supInit(live(k)) = st.sup.get(live(k)); k += 1 }
      // ---- range upper bound (findHi with two-way adaptive target) ----
      var tgt = 0L
      val hi =
        if (i >= P) Long.MaxValue // leftover subset U_{P+1}
        else {
          tgt = math.max(1L, (scale * remainingWedges / (P - i)).toLong)
          k = 0
          while (k < nLive) { selSup(k) = supInit(live(k)); selW(k) = w(live(k)); k += 1 }
          findHi(selSup, selW, nLive, tgt)
        }

      var subsetW = 0L
      var active = below(live, nLive, hi)

      while (active.nonEmpty) {
        // ---- HUC decision: substrate peel cost vs re-count bound ----
        var cPeel = 0L
        k = 0
        if (enableHUC) while (k < active.length) { cPeel += sub.peelCost(active(k)); k += 1 }
        k = 0
        while (k < active.length) {
          val u0 = active(k)
          subsetOf(u0) = i; subsetW += w(u0); st.markPeeled(u0)
          k += 1
        }
        rounds += 1

        if (enableHUC && cPeel > cRcntCache) {
          hucTriggers += 1
          val tRc0 = System.nanoTime()
          val (cnt, wedges) = sub.recount()
          hucNs += System.nanoTime() - tRc0
          compactLive()
          k = 0
          while (k < nLive) { st.sup.set(live(k), cnt(live(k))); k += 1 }
          hucWedges += wedges
          cRcntCache = recountCost()
          active = below(live, nLive, hi)
        } else {
          val (wedges, touched) = sub.peel(active, lo)
          peelWedges += wedges
          st.chargeWedges(wedges)
          // next active set: touched vertices now inside the range (every
          // other live vertex kept its support, which is ≥ hi)
          active = below(touched, touched.length, hi)
        }
      }

      loBuf += lo; hiBuf += hi; swBuf += subsetW
      if (i < P && subsetW > 0) scale = math.min(1.0, tgt.toDouble / subsetW.toDouble)
      remainingWedges -= subsetW
      lo = hi
      i += 1
    }

    CDResult(
      subsetOf, supInit, loBuf.toArray, hiBuf.toArray, swBuf.toArray,
      cntInitWedges = cntInitWedges, hucWedges = hucWedges, peelWedges = peelWedges,
      rounds = rounds, hucTriggers = hucTriggers,
      cntTimeMs = cntTimeMs, peelTimeMs = (System.nanoTime() - t0) / 1e6, hucTimeMs = hucNs / 1e6
    )
  }

  /** `findHi` of alg. 3 over `n` live vertices' supports `sup` and wedge
    * counts `w ≥ 0` (both permuted in place): `θ + 1` for the smallest
    * support θ whose cumulative wedge count, over supports ≤ θ, reaches
    * `tgt ≥ 1`, or for the maximum support when the total is below `tgt`.
    * A weighted quickselect with three-way partitions, O(n) expected; its
    * random pivots change the time it takes, never its result.
    */
  private[bipartite] def findHi(sup: Array[Long], w: Array[Long], n: Int, tgt: Long): Long = {
    var total = 0L
    var max = Long.MinValue
    var k = 0
    while (k < n) { total += w(k); max = math.max(max, sup(k)); k += 1 }
    if (total < tgt) max + 1
    else {
      // θ lies in sup(from until until), with `need` the wedge count it must
      // still reach; that range's total is ≥ need ≥ 1 throughout
      var from = 0; var until = n; var need = tgt
      var theta = Long.MinValue; var found = false
      val rnd = java.util.concurrent.ThreadLocalRandom.current()
      while (!found) {
        val p = sup(rnd.nextInt(from, until))
        var lt = from; var j = from; var gt = until
        var wLess = 0L; var wEq = 0L
        while (j < gt) {
          val s = sup(j)
          if (s < p) { wLess += w(j); swap(sup, w, lt, j); lt += 1; j += 1 }
          else if (s > p) { gt -= 1; swap(sup, w, j, gt) }
          else { wEq += w(j); j += 1 }
        }
        if (wLess >= need) until = lt
        else if (wLess + wEq >= need) { theta = p; found = true }
        else { need -= wLess + wEq; from = gt }
      }
      theta + 1
    }
  }

  private def swap(sup: Array[Long], w: Array[Long], a: Int, b: Int): Unit = {
    val s = sup(a); sup(a) = sup(b); sup(b) = s
    val x = w(a); w(a) = w(b); w(b) = x
  }

  // ---------------------------------------------------------------- FD ----

  /** One FD task of alg. 4: a subset's members (ascending), their
    * `⋈^init` (aligned with `members`) and its induced edges `(u << 32) | v`
    * (ascending); [[peel]] runs [[BUP.peelSubset]] on them.
    */
  final case class FDTask(members: Array[Int], initSup: Array[Long], edges: Array[Long]) {
    def peel(enableDGM: Boolean): (Array[Long], Long) = BUP.peelSubset(members, initSup, edges, enableDGM)
  }

  /** Every CD subset's [[FDTask]], in LPT order (largest CD wedge proxy
    * first), from one O(nU + m) pass over the CSR in u order, which yields
    * members and edges ascending.
    */
  def fdTasks(g: BipartiteGraph, cd: CDResult): Array[FDTask] = {
    val nMem = new Array[Int](cd.subsets); val nEdge = new Array[Int](cd.subsets)
    for (u <- 0 until g.nU) { nMem(cd.subsetOf(u)) += 1; nEdge(cd.subsetOf(u)) += g.degU(u) }
    val members = nMem.map(new Array[Int](_)); val edges = nEdge.map(new Array[Long](_))
    java.util.Arrays.fill(nMem, 0); java.util.Arrays.fill(nEdge, 0)
    for (u <- 0 until g.nU) {
      val i = cd.subsetOf(u)
      members(i)(nMem(i)) = u; nMem(i) += 1
      g.foreachNbrU(u) { v => edges(i)(nEdge(i)) = (u.toLong << 32) | v; nEdge(i) += 1 }
    }
    (0 until cd.subsets).sortBy(i => -cd.subsetWedgeW(i)).iterator
      .map(i => FDTask(members(i), members(i).map(cd.supInit), edges(i))).toArray
  }

  /** Alg. 4 on the shared-memory substrate: the [[fdTasks]] on a dynamic
    * queue of `threads` workers. Returns tips and FD wedges; a failed task
    * fails the call.
    */
  def fineDecomposition(g: BipartiteGraph, cd: CDResult, cfg: Config): (Array[Long], Long) =
    fineDecomposition(g, cd) { tasks =>
      val out = new Array[(Array[Long], Long)](tasks.length)
      WorkerPool.run(cfg.threads, tasks.length)(k => out(k) = tasks(k).peel(cfg.enableDGM))
      out
    }

  /** Alg. 4 on any substrate: builds the [[fdTasks]], has `runTasks` return
    * each task's `(tips, wedges)` in task order, and returns every vertex's
    * tip and the FD wedges. Checks lemmas 3 and 4 on the way out, in O(nU):
    * a tip outside its subset's CD range `[lo, hi)` is a CD defect and
    * throws instead of returning tips.
    */
  def fineDecomposition(g: BipartiteGraph, cd: CDResult)(
      runTasks: Array[FDTask] => Array[(Array[Long], Long)]): (Array[Long], Long) = {
    val tasks = fdTasks(g, cd)
    val results = runTasks(tasks)
    val tips = Array.fill[Long](g.nU)(-1L)
    for (k <- tasks.indices; j <- tasks(k).members.indices) tips(tasks(k).members(j)) = results(k)._1(j)
    for (u <- 0 until g.nU) {
      val i = cd.subsetOf(u)
      if (tips(u) < cd.lo(i) || tips(u) >= cd.hi(i)) throw new IllegalStateException(
        s"CD defect: vertex $u of subset $i has tip ${tips(u)} outside [${cd.lo(i)}, ${cd.hi(i)}) (lemmas 3, 4)")
    }
    (tips, results.map(_._2).sum)
  }
}
