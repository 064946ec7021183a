package repro.bipartite

import java.util.concurrent.atomic.AtomicLongArray

/** Result of a counting pass: per-vertex butterfly counts for both sides and
  * the number of wedges actually traversed (the paper's Λ^pvBcnt metric).
  */
final case class ButterflyCounts(cntU: Array[Long], cntV: Array[Long], wedges: Long) {

  /** Total distinct butterflies ⋈_G. Every butterfly is incident on exactly
    * two U and two V vertices, so Σ_u ⋈_u = Σ_v ⋈_v = 2·⋈_G.
    */
  def totalButterflies: Long = cntU.sum / 2
}

/** Per-vertex butterfly counting.
  *
  * `vertexPriority` implements the paper's alg. 1 (Chiba–Nishizeki wedge
  * retrieval with the cache-efficient degree-descending relabeling of Wang et
  * al.): only wedges `(sp, mp, ep)` whose endpoint `ep` has higher priority
  * (larger degree) than both `sp` and `mp` are traversed, giving
  * `O(Σ_{(u,v)∈E} min(d_u, d_v))` total wedges instead of `O(Σ_v d_v²)`.
  * A two-pass formulation replaces the `nzw` wedge log of the pseudocode so
  * no per-start-vertex wedge list is materialized.
  */
object ButterflyCounting {

  @inline private def choose2(c: Long): Long = c * (c - 1) / 2

  /** Combined-node-space view used by the priority algorithm: node ids are
    * `u` for U and `nU + v` for V; `rank(node)` is the position in the
    * degree-descending order (rank 0 = highest degree, ties by id) and each
    * adjacency list is pre-sorted by ascending rank so the inner loop can
    * break at the first endpoint that violates the priority condition.
    */
  private final class Combined(g: BipartiteGraph) {
    val n: Int            = g.nU + g.nV
    val rank: Array[Int]  = new Array[Int](n)
    val off: Array[Int]   = new Array[Int](n + 1)
    val adj: Array[Int]   = new Array[Int](2 * g.m)

    {
      val deg = new Array[Int](n)
      var i = 0
      while (i < g.nU) { deg(i) = g.degU(i); i += 1 }
      i = 0
      while (i < g.nV) { deg(g.nU + i) = g.degV(i); i += 1 }
      val order = Array.tabulate(n)(identity)
      // degree descending, id ascending for ties
      val boxed = order.map(Integer.valueOf)
      java.util.Arrays.sort(boxed, (a: Integer, b: Integer) => {
        val c = java.lang.Integer.compare(deg(b), deg(a))
        if (c != 0) c else java.lang.Integer.compare(a, b)
      })
      i = 0
      while (i < n) { rank(boxed(i)) = i; i += 1 }
      i = 0
      while (i < n) { off(i + 1) = off(i) + deg(i); i += 1 }
      val fill = java.util.Arrays.copyOf(off, n)
      var u = 0
      while (u < g.nU) {
        g.foreachNbrU(u) { v =>
          val a = u; val b = g.nU + v
          adj(fill(a)) = b; fill(a) += 1
          adj(fill(b)) = a; fill(b) += 1
        }
        u += 1
      }
      // sort each adjacency by ascending rank
      i = 0
      while (i < n) {
        val from = off(i); val until = off(i + 1)
        val slice = java.util.Arrays.copyOfRange(adj, from, until)
        val sb = slice.map(Integer.valueOf)
        java.util.Arrays.sort(sb, (a: Integer, b: Integer) => java.lang.Integer.compare(rank(a), rank(b)))
        var k = 0
        while (k < sb.length) { adj(from + k) = sb(k); k += 1 }
        i += 1
      }
    }
  }

  /** Alg. 1 on graph `g`, using up to `threads` worker threads. */
  def vertexPriority(g: BipartiteGraph, threads: Int = 1): ButterflyCounts = {
    val c   = new Combined(g)
    val n   = c.n
    val cnt = new AtomicLongArray(n)
    val wedgesTotal = new java.util.concurrent.atomic.AtomicLong(0L)

    def processRange(from: Int, until: Int): Unit = {
      val wdg = new Array[Long](n)
      val nze = new Array[Int](n)
      var wedges = 0L
      var sp = from
      while (sp < until) {
        val rsp = c.rank(sp)
        var nNze = 0
        // pass 1: aggregate wedge counts per endpoint
        var i = c.off(sp)
        var spAdd = 0L
        while (i < c.off(sp + 1)) {
          val mp  = c.adj(i)
          val rmp = c.rank(mp)
          var j = c.off(mp)
          val jEnd = c.off(mp + 1)
          var break = false
          while (j < jEnd && !break) {
            val ep = c.adj(j)
            val rep = c.rank(ep)
            if (rep >= rmp || rep >= rsp) break = true
            else {
              if (wdg(ep) == 0) { nze(nNze) = ep; nNze += 1 }
              wdg(ep) += 1
              wedges += 1
              j += 1
            }
          }
          i += 1
        }
        // same-side contributions
        var k = 0
        while (k < nNze) {
          val ep = nze(k)
          val b  = choose2(wdg(ep))
          if (b > 0) { cnt.addAndGet(ep, b); spAdd += b }
          k += 1
        }
        if (spAdd > 0) cnt.addAndGet(sp, spAdd)
        // pass 2: opposite-side (mid) contributions, using finalized wdg
        i = c.off(sp)
        while (i < c.off(sp + 1)) {
          val mp  = c.adj(i)
          val rmp = c.rank(mp)
          var j = c.off(mp)
          val jEnd = c.off(mp + 1)
          var mpAdd = 0L
          var break = false
          while (j < jEnd && !break) {
            val ep = c.adj(j)
            val rep = c.rank(ep)
            if (rep >= rmp || rep >= rsp) break = true
            else { mpAdd += wdg(ep) - 1; j += 1 }
          }
          if (mpAdd > 0) cnt.addAndGet(mp, mpAdd)
          i += 1
        }
        // clear scratch
        k = 0
        while (k < nNze) { wdg(nze(k)) = 0; k += 1 }
        sp += 1
      }
      wedgesTotal.addAndGet(wedges)
      ()
    }

    if (threads <= 1 || n < 1024) processRange(0, n)
    else {
      val chunk = math.max(1, (n + 4 * threads - 1) / (4 * threads))
      WorkerPool.run(threads, (n + chunk - 1) / chunk) { t =>
        processRange(t * chunk, math.min(n, (t + 1) * chunk))
      }
    }

    val cntU = Array.tabulate(g.nU)(u => cnt.get(u))
    val cntV = Array.tabulate(g.nV)(v => cnt.get(g.nU + v))
    ButterflyCounts(cntU, cntV, wedgesTotal.get())
  }
}
