package repro.bipartite

import java.util.concurrent.atomic.AtomicLongArray

/** Indexed binary min-heap over the ids `0 until n`, ordered by
  * `(key, id)`: at most one entry per id, whose key [[decrease]] lowers in
  * place. Peeling keys each live vertex by its support, so the heap never
  * holds more than the vertices it was seeded with, and ties pop in
  * ascending id order.
  */
final class IndexedMinHeap(n: Int) {
  private val key = new Array[Long](n)
  private val heap = new Array[Int](n)
  private val pos = new Array[Int](n)
  private var size = 0

  def isEmpty: Boolean = size == 0

  /** Key of the minimum entry; the heap must not be empty. */
  def topKey: Long = key(heap(0))

  /** Adds `id` (not already in the heap) with key `k`. */
  def push(id: Int, k: Long): Unit = {
    key(id) = k
    size += 1
    siftUp(id, size - 1)
  }

  /** Lowers the key of `id` (in the heap) to `k ≤` its current key. */
  def decrease(id: Int, k: Long): Unit = {
    key(id) = k
    siftUp(id, pos(id))
  }

  /** Removes the minimum entry and returns its id. */
  def pop(): Int = {
    val top = heap(0)
    size -= 1
    if (size > 0) siftDown(heap(size), 0)
    top
  }

  @inline private def less(a: Int, b: Int): Boolean =
    key(a) < key(b) || (key(a) == key(b) && a < b)

  private def place(id: Int, i: Int): Unit = { heap(i) = id; pos(id) = i }

  private def siftUp(id: Int, from: Int): Unit = {
    var i = from
    while (i > 0 && less(id, heap((i - 1) >>> 1))) {
      val p = (i - 1) >>> 1
      place(heap(p), i)
      i = p
    }
    place(id, i)
  }

  private def siftDown(id: Int, from: Int): Unit = {
    var i = from
    var done = false
    while (!done) {
      val l = 2 * i + 1
      if (l >= size) done = true
      else {
        val c = if (l + 1 < size && less(heap(l + 1), heap(l))) l + 1 else l
        if (less(heap(c), id)) { place(heap(c), i); i = c } else done = true
      }
    }
    place(id, i)
  }
}

object Peeling {
  @inline def choose2(c: Long): Long = c * (c - 1) / 2
}

/** Mutable peeling state over a [[BipartiteGraph]]:
  *
  *  - `alive` flags and atomic supports for the U side;
  *  - a copy of the V-side CSR adjacency, whose lists DGM (dynamic graph
  *    maintenance, §4.2) periodically compacts in place, each within its own
  *    `vOff` slice, to drop edges to peeled vertices. Wedge-traversal
  *    metering charges the *stored* list length (`vLen`), so running without
  *    DGM pays for stale entries exactly as the paper describes;
  *  - the `update(u, …)` routine of alg. 2: aggregate wedges `u–v–u'` into a
  *    scratch array, convert each aggregated count `c` into `C(c, 2)` shared
  *    butterflies, and apply capped atomic decrements
  *    `⋈_{u'} ← max(capFloor, ⋈_{u'} − C(c,2))`.
  *
  * Vertex ids and supports are plain `Int`s and `Long`s here and in the
  * peel heap ([[IndexedMinHeap]]), so `g.nU` and supports use their full
  * range.
  *
  * Thread-safety: `update` may be called concurrently for distinct `u`
  * provided each caller passes its own `wdg`/`touched` scratch. Callers must
  * mark the whole batch dead (`markPeeled`) before issuing updates so
  * intra-batch updates are skipped (they are irrelevant by lemma 2).
  */
final class PeelState(val g: BipartiteGraph, enableDGM: Boolean) {
  import Peeling._

  val alive: Array[Boolean] = Array.fill(g.nU)(true)
  val sup: AtomicLongArray  = new AtomicLongArray(g.nU)
  /** Live U-degree of each v (excludes peeled vertices); used for HUC cost
    * estimates. Stored-list length `vLen` is the actual traversal cost.
    * Written only by [[markPeeled]], in sequential sections.
    */
  val curDegV: Array[Int] = new Array[Int](g.nV)
  private val vLen: Array[Int] = new Array[Int](g.nV)
  private val vAdj: Array[Int] = g.vAdj.clone()
  locally {
    var v = 0
    while (v < g.nV) { curDegV(v) = g.degV(v); vLen(v) = g.degV(v); v += 1 }
  }

  var aliveCount: Int = g.nU
  private var wedgesSinceCompact = 0L

  def setSupports(init: Array[Long]): Unit = {
    var u = 0
    while (u < g.nU) { sup.set(u, init(u)); u += 1 }
  }

  /** Stored traversal cost of peeling `u` now: Σ_{v∈N_u} storedLen(v). */
  def storedPeelCost(u: Int): Long = {
    var s = 0L
    g.foreachNbrU(u)(v => s += vLen(v))
    s
  }

  /** Live traversal cost of peeling `u` now: Σ_{v∈N_u} curDeg_v. */
  def livePeelCost(u: Int): Long = {
    var s = 0L
    g.foreachNbrU(u)(v => s += curDegV(v))
    s
  }

  /** Mark `u` peeled: flips `alive`, decrements live V degrees and the live
    * count. Must happen for the whole batch before updates are issued, and
    * is only called from the sequential section of each round.
    */
  def markPeeled(u: Int): Unit = {
    alive(u) = false
    aliveCount -= 1
    g.foreachNbrU(u)(v => curDegV(v) -= 1)
  }

  /** Alg. 2 `update` for peeled vertex `u`. Returns wedges traversed.
    * `onUpdated` is invoked once per distinct live vertex whose support
    * changed, with its new support (callers use it for heap decrease-keys
    * / active-set tracking; pass null to skip). Scratch arrays must be sized
    * `nU` (`wdg` zeroed between calls — this routine restores zeros).
    */
  def update(u: Int, capFloor: Long, wdg: Array[Int], touched: Array[Int],
             onUpdated: (Int, Long) => Unit): Long = {
    var wedges = 0L
    var nT = 0
    g.foreachNbrU(u) { v =>
      val off = g.vOff(v); val end = off + vLen(v)
      wedges += vLen(v)
      var i = off
      while (i < end) {
        val u2 = vAdj(i)
        if (u2 != u && alive(u2)) {
          if (wdg(u2) == 0) { touched(nT) = u2; nT += 1 }
          wdg(u2) += 1
        }
        i += 1
      }
    }
    var k = 0
    while (k < nT) {
      val u2 = touched(k)
      val dec = choose2(wdg(u2).toLong)
      wdg(u2) = 0
      if (dec > 0) {
        // atomic capped decrement
        var done = false
        var newVal = 0L
        while (!done) {
          val cur = sup.get(u2)
          newVal = math.max(capFloor, cur - dec)
          done = newVal == cur || sup.compareAndSet(u2, cur, newVal)
          if (newVal == cur) newVal = -1 // no change ⇒ no notification
        }
        if (newVal >= 0 && onUpdated != null) onUpdated(u2, newVal)
      }
      k += 1
    }
    wedges
  }

  /** Charge `w` traversed wedges against the DGM budget and compact the
    * V adjacency (drop edges to peeled vertices) once the traversal since
    * the last compaction exceeds `m` — the paper's amortization rule that
    * keeps DGM overhead within the peeling complexity.
    */
  def chargeWedges(w: Long): Unit = if (enableDGM) {
    wedgesSinceCompact += w
    if (wedgesSinceCompact > g.m.toLong) { compact(); wedgesSinceCompact = 0L }
  }

  private def compact(): Unit = {
    var v = 0
    while (v < g.nV) {
      val off = g.vOff(v); val end = off + vLen(v)
      var w = off; var i = off
      while (i < end) {
        val u2 = vAdj(i)
        if (alive(u2)) { vAdj(w) = u2; w += 1 }
        i += 1
      }
      vLen(v) = w - off
      v += 1
    }
  }
}

/** One synchronization round of batch peeling on a thread pool: alg. 2
  * `update` for every vertex of a batch, split into `pool.threads`
  * contiguous chunks with one barrier. Shared by ParB rounds and RECEIPT CD
  * peel rounds. Per-thread scratch, each thread's touched buffer included,
  * is allocated once per instance and reused by every round; the pool is
  * the caller's.
  */
final class BatchUpdate(st: PeelState, pool: WorkerPool) {
  private val threads = pool.threads
  private val scratchW = Array.fill(threads)(new Array[Int](st.g.nU))
  private val scratchT = Array.fill(threads)(new Array[Int](st.g.nU))
  private val touched = Array.fill(threads)(new BatchUpdate.Touched(st.g.nU))
  private val wedges = new Array[Long](threads)

  /** Updates for `batch`, already marked peeled, with decrements capped at
    * `capFloor`. Returns the wedges traversed and the distinct live vertices
    * whose support changed, each at its first notification, threads in
    * chunk order.
    */
  def apply(batch: Array[Int], capFloor: Long): (Long, Array[Int]) = {
    val n = batch.length
    val chunk = math.max(1, (n + threads - 1) / threads)
    val tasks = (n + chunk - 1) / chunk
    pool.run(tasks) { t =>
      val until = math.min(n, (t + 1) * chunk)
      var w = 0L
      var k = t * chunk
      while (k < until) {
        w += st.update(batch(k), capFloor, scratchW(t), scratchT(t), touched(t))
        k += 1
      }
      wedges(t) = w
    }
    // merge into thread 0's buffer: it holds at most every live vertex once
    val all = touched(0)
    var w = 0L
    var t = 0
    while (t < tasks) {
      w += wedges(t)
      if (t > 0) {
        val b = touched(t)
        var k = 0
        while (k < b.size) { all.add(b.ids(k)); k += 1 }
        b.clear()
      }
      t += 1
    }
    val out = java.util.Arrays.copyOf(all.ids, all.size)
    all.clear()
    (w, out)
  }
}

object BatchUpdate {
  /** One thread's touched vertices, in first-notification order, each once;
    * the `onUpdated` sink of [[PeelState.update]] (only live vertices are
    * notified, so it holds at most `nU` ids).
    */
  private final class Touched(nU: Int) extends ((Int, Long) => Unit) {
    private val seen = new Array[Boolean](nU)
    val ids = new Array[Int](nU)
    var size = 0

    def apply(u: Int, sup: Long): Unit = add(u)

    def add(u: Int): Unit = if (!seen(u)) { seen(u) = true; ids(size) = u; size += 1 }

    def clear(): Unit = {
      var k = 0
      while (k < size) { seen(ids(k)) = false; k += 1 }
      size = 0
    }
  }
}
