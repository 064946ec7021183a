package repro.bipartite

import java.util.concurrent.atomic.{AtomicLong, AtomicLongArray}
import scala.collection.mutable.ArrayBuffer

/** Unboxed binary min-heap of packed longs. Peeling kernels pack
  * `(support << IdBits) | vertexId` so the heap orders by support first
  * (supports are non-negative), with lazy deletion of stale entries.
  */
final class LongMinHeap(initCap: Int = 16) {
  private var a = new Array[Long](math.max(initCap, 16))
  private var n = 0

  def size: Int = n
  def isEmpty: Boolean = n == 0

  def push(x: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, a.length * 2)
    a(n) = x
    var i = n
    n += 1
    while (i > 0 && a((i - 1) / 2) > a(i)) {
      val p = (i - 1) / 2
      val t = a(p); a(p) = a(i); a(i) = t
      i = p
    }
  }

  def peek: Long = a(0)

  def pop(): Long = {
    val top = a(0)
    n -= 1
    a(0) = a(n)
    var i = 0
    var done = false
    while (!done) {
      val l = 2 * i + 1; val r = l + 1
      var s = i
      if (l < n && a(l) < a(s)) s = l
      if (r < n && a(r) < a(s)) s = r
      if (s == i) done = true
      else { val t = a(s); a(s) = a(i); a(i) = t; i = s }
    }
    top
  }
}

object Peeling {
  /** Vertex ids packed into the low bits of heap entries. 2^21 = 2M vertices
    * leaves 42 bits for supports (≈4.4e12), plenty at reproduction scale.
    */
  val IdBits = 21
  val IdMask: Long = (1L << IdBits) - 1

  @inline def pack(sup: Long, u: Int): Long = (sup << IdBits) | u
  @inline def unpackSup(x: Long): Long = x >>> IdBits
  @inline def unpackId(x: Long): Int = (x & IdMask).toInt

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
  * Thread-safety: `update` may be called concurrently for distinct `u`
  * provided each caller passes its own `wdg`/`touched` scratch. Callers must
  * mark the whole batch dead (`markPeeled`) before issuing updates so
  * intra-batch updates are skipped (they are irrelevant by lemma 2).
  */
final class PeelState(val g: BipartiteGraph, enableDGM: Boolean) {
  import Peeling._

  require(g.nU < (1 << IdBits), s"nU=${g.nU} exceeds heap id space")

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

  /** Chiba–Nishizeki re-count bound on the live subgraph:
    * Σ_{(u,v)∈E, u alive} min(d_u, curDeg_v). O(m) — call sparingly.
    */
  def recountCost: Long = {
    var s = 0L; var u = 0
    while (u < g.nU) {
      if (alive(u)) {
        val du = g.degU(u)
        g.foreachNbrU(u)(v => s += math.min(du, curDegV(v)))
      }
      u += 1
    }
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
    * changed, with its new support (callers use it for heap pushes /
    * active-set tracking; pass null to skip). Scratch arrays must be sized
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
  * `update` for every vertex of a batch, split into `threads` contiguous
  * chunks with one barrier. Shared by ParB rounds and RECEIPT CD peel
  * rounds. The pool and per-thread scratch are allocated once per instance
  * and reused by every round; `close` shuts the pool down.
  */
final class BatchUpdate(st: PeelState, threads: Int) extends AutoCloseable {
  private val pool = new WorkerPool(threads)
  private val scratchW = Array.fill(threads)(new Array[Int](st.g.nU))
  private val scratchT = Array.fill(threads)(new Array[Int](st.g.nU))
  private val touchedFlag = new Array[Boolean](st.g.nU)

  /** Updates for `batch`, already marked peeled, with decrements capped at
    * `capFloor`. Returns the wedges traversed and the distinct live vertices
    * whose support changed.
    */
  def apply(batch: Array[Int], capFloor: Long): (Long, Array[Int]) = {
    val n = batch.length
    val wedges = new AtomicLong(0L)
    val perThreadTouched = Array.fill(threads)(new ArrayBuffer[Int]())
    val chunk = math.max(1, (n + threads - 1) / threads)
    pool.run((n + chunk - 1) / chunk) { t =>
      val until = math.min(n, (t + 1) * chunk)
      var w = 0L
      var k = t * chunk
      val buf = perThreadTouched(t)
      while (k < until) {
        w += st.update(batch(k), capFloor, scratchW(t), scratchT(t), (u2, _) => buf += u2)
        k += 1
      }
      wedges.addAndGet(w)
    }
    val touched = new ArrayBuffer[Int]()
    perThreadTouched.foreach(_.foreach { u2 =>
      if (!touchedFlag(u2) && st.alive(u2)) { touchedFlag(u2) = true; touched += u2 }
    })
    touched.foreach(touchedFlag(_) = false)
    (wedges.get(), touched.toArray)
  }

  def close(): Unit = pool.close()
}
