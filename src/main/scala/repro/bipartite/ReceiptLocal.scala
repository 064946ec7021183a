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

    /** Per-U butterfly counts of the live graph, `removed` (already marked
      * peeled) now gone, and the wedges the count traversed.
      */
    def recount(removed: Array[Int]): (Array[Long], Long)
  }

  /** Shared-memory CD: vertex-priority counting, then the alg. 3 driver
    * with threaded batch peel rounds and in-place re-counts of the live
    * graph. One rank-ordered [[ButterflyCounting.Combined]] serves the
    * initial count and every re-count (each first deletes the peeled U
    * vertices from it), and one pool runs counts and peel rounds.
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
        def recount(removed: Array[Int]): (Array[Long], Long) = {
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
    */
  def coarseDecomposition(st: PeelState, P: Int, enableHUC: Boolean,
                          cntInitWedges: Long, cntTimeMs: Double, sub: CDRounds): CDResult = {
    val t0 = System.nanoTime()
    val nU = st.g.nU
    val w = st.g.wedgeEndpointCountU // static wedge-count proxy, per paper
    val subsetOf = Array.fill(nU)(-1)
    val supInit = new Array[Long](nU)
    val loBuf = scala.collection.mutable.ArrayBuffer[Long]()
    val hiBuf = scala.collection.mutable.ArrayBuffer[Long]()
    val swBuf = scala.collection.mutable.ArrayBuffer[Long]()

    var hucWedges = 0L
    var hucNs = 0L
    var peelWedges = 0L
    var rounds = 0L
    var hucTriggers = 0
    var cRcntCache = st.recountCost

    var lo = 0L
    var i = 0
    var scale = 1.0
    var remainingWedges = w.sum

    while (st.aliveCount > 0) {
      // ---- range upper bound (findHi with two-way adaptive target) ----
      var tgt = 0L
      val hi =
        if (i >= P) Long.MaxValue // leftover subset U_{P+1}
        else {
          tgt = math.max(1L, (scale * remainingWedges / (P - i)).toLong)
          findHi(st, w, tgt)
        }
      // ---- ⋈^init snapshot: support before any vertex of U_i is peeled ----
      var u = 0
      while (u < nU) { if (st.alive(u)) supInit(u) = st.sup.get(u); u += 1 }

      var subsetW = 0L
      var active = scanActive(st, hi)

      while (active.nonEmpty) {
        // ---- HUC decision: substrate peel cost vs re-count bound ----
        var cPeel = 0L
        if (enableHUC) active.foreach(u0 => cPeel += sub.peelCost(u0))
        active.foreach { u0 => subsetOf(u0) = i; subsetW += w(u0); st.markPeeled(u0) }
        rounds += 1

        if (enableHUC && cPeel > cRcntCache) {
          hucTriggers += 1
          val tRc0 = System.nanoTime()
          val (cnt, wedges) = sub.recount(active)
          hucNs += System.nanoTime() - tRc0
          var u2 = 0
          while (u2 < nU) { if (st.alive(u2)) st.sup.set(u2, cnt(u2)); u2 += 1 }
          hucWedges += wedges
          cRcntCache = st.recountCost
          active = scanActive(st, hi)
        } else {
          val (wedges, touched) = sub.peel(active, lo)
          peelWedges += wedges
          st.chargeWedges(wedges)
          // next active set: touched vertices now inside the range (every
          // other live vertex kept its support, which is ≥ hi)
          active = touched.filter(st.sup.get(_) < hi)
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

  /** All live vertices with support below `hi` (supports are ≥ the current
    * range floor by the cap invariant).
    */
  private def scanActive(st: PeelState, hi: Long): Array[Int] = {
    val b = new scala.collection.mutable.ArrayBuffer[Int]()
    var u = 0
    while (u < st.g.nU) { if (st.alive(u) && st.sup.get(u) < hi) b += u; u += 1 }
    b.toArray
  }

  /** `findHi` of alg. 3: aggregate wedge counts into a support histogram,
    * prefix-sum in ascending support order, return `θ + 1` for the smallest
    * support θ whose cumulative wedge count reaches `tgt`.
    */
  private def findHi(st: PeelState, w: Array[Long], tgt: Long): Long = {
    val pairs = new scala.collection.mutable.ArrayBuffer[(Long, Long)]()
    var u = 0
    while (u < st.g.nU) { if (st.alive(u)) pairs += ((st.sup.get(u), w(u))); u += 1 }
    val sorted = pairs.sortBy(_._1)
    var cum = 0L
    var theta = sorted.last._1 // fall back to max support if tgt unreachable
    var k = 0
    var found = false
    while (k < sorted.length && !found) {
      cum += sorted(k)._2
      if (cum >= tgt) { theta = sorted(k)._1; found = true }
      k += 1
    }
    theta + 1
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
    * tip and the FD wedges.
    */
  def fineDecomposition(g: BipartiteGraph, cd: CDResult)(
      runTasks: Array[FDTask] => Array[(Array[Long], Long)]): (Array[Long], Long) = {
    val tasks = fdTasks(g, cd)
    val results = runTasks(tasks)
    val tips = Array.fill[Long](g.nU)(-1L)
    for (k <- tasks.indices; j <- tasks(k).members.indices) tips(tasks(k).members(j)) = results(k)._1(j)
    (tips, results.map(_._2).sum)
  }
}
