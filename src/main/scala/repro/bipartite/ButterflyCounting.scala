package repro.bipartite

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong, AtomicLongArray}

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
  * `vertexPriority` implements the paper's alg. 1: Chiba–Nishizeki wedge
  * retrieval under the degree-descending vertex priority of Wang et al.
  * Vertices keep their original ids and the inner loops look up each one's
  * priority in `rank`; Wang et al.'s cache-efficient relabeling into rank
  * order is not done. Only wedges `(sp, mp, ep)` whose endpoint `ep` has
  * higher priority (larger degree) than both `sp` and `mp` are traversed,
  * giving `O(Σ_{(u,v)∈E} min(d_u, d_v))` total wedges instead of
  * `O(Σ_v d_v²)`.
  * A two-pass formulation replaces the `nzw` wedge log of the pseudocode so
  * no per-start-vertex wedge list is materialized.
  */
object ButterflyCounting {

  /** Combined-node-space view used by the priority algorithm: node ids are
    * `u` for U and `nU + v` for V; `rank(node)` is the position in the
    * degree-descending order of the graph it was built from (rank 0 =
    * highest degree, ties by id) and each adjacency list `off(x) until
    * end(x)` is sorted by ascending rank so the inner loop can break at the
    * first endpoint that violates the priority condition. Any fixed total
    * order counts exactly, so [[retainU]] can delete U vertices in place and
    * [[count]] re-count the live graph without a rebuild. Scratch for
    * `threads` workers is allocated once and reused by every count.
    */
  private[bipartite] final class Combined(g: BipartiteGraph, threads: Int) {
    val n: Int            = g.nU + g.nV
    val rank: Array[Int]  = new Array[Int](n)
    val off: Array[Int]   = new Array[Int](n + 1)
    val end: Array[Int]   = new Array[Int](n)
    val adj: Array[Int]   = new Array[Int](2 * g.m)
    private val scratchW  = Array.fill(threads)(new Array[Int](n))
    private val scratchZ  = Array.fill(threads)(new Array[Int](n))
    private val cnt       = new AtomicLongArray(n)
    private val cntU      = new Array[Long](g.nU)
    private val cntV      = new Array[Long](g.nV)

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
        end(i) = until
        i += 1
      }
    }

    /** Deletes every U vertex `u` with `!alive(u)`: empties its list and
      * drops it from every V list, compacting in place, which keeps each
      * list in ascending rank order. O(current lists).
      */
    def retainU(alive: Array[Boolean]): Unit = {
      var u = 0
      while (u < g.nU) { if (!alive(u)) end(u) = off(u); u += 1 }
      var x = g.nU
      while (x < n) {
        var w = off(x); var i = off(x)
        while (i < end(x)) {
          val a = adj(i)
          if (alive(a)) { adj(w) = a; w += 1 }
          i += 1
        }
        end(x) = w
        x += 1
      }
    }

    /** Alg. 1 on the current lists; start vertices are claimed in chunks by
      * up to `threads` tasks on `pool`. The result's arrays are this
      * structure's own, reused by every count: the next count overwrites
      * them, so a caller that keeps counts across counts copies them
      * (local CD copies each count into its `PeelState` at once;
      * [[vertexPriority]] counts once and drops the structure).
      */
    def count(pool: WorkerPool): ButterflyCounts = {
      var x = 0
      while (x < n) { cnt.lazySet(x, 0L); x += 1 }
      val wedgesTotal = new AtomicLong(0L)

      def processRange(from: Int, until: Int, wdg: Array[Int], nze: Array[Int]): Long = {
        var wedges = 0L
        var sp = from
        while (sp < until) {
          val rsp = rank(sp)
          var nNze = 0
          // pass 1: aggregate wedge counts per endpoint
          var i = off(sp)
          var spAdd = 0L
          while (i < end(sp)) {
            val mp  = adj(i)
            val rmp = rank(mp)
            var j = off(mp)
            val jEnd = end(mp)
            var break = false
            while (j < jEnd && !break) {
              val ep = adj(j)
              val rep = rank(ep)
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
            val b  = Peeling.choose2(wdg(ep).toLong)
            if (b > 0) { cnt.addAndGet(ep, b); spAdd += b }
            k += 1
          }
          if (spAdd > 0) cnt.addAndGet(sp, spAdd)
          // pass 2: opposite-side (mid) contributions, using finalized wdg
          i = off(sp)
          while (i < end(sp)) {
            val mp  = adj(i)
            val rmp = rank(mp)
            var j = off(mp)
            val jEnd = end(mp)
            var mpAdd = 0L
            var break = false
            while (j < jEnd && !break) {
              val ep = adj(j)
              val rep = rank(ep)
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
        wedges
      }

      val chunk = math.max(1, n / (16 * threads))
      val next = new AtomicInteger(0)
      pool.run(threads) { t =>
        var w = 0L
        var from = next.getAndAdd(chunk)
        while (from < n) {
          w += processRange(from, math.min(n, from + chunk), scratchW(t), scratchZ(t))
          from = next.getAndAdd(chunk)
        }
        wedgesTotal.addAndGet(w)
      }

      var u = 0
      while (u < g.nU) { cntU(u) = cnt.get(u); u += 1 }
      var v = 0
      while (v < g.nV) { cntV(v) = cnt.get(g.nU + v); v += 1 }
      ButterflyCounts(cntU, cntV, wedgesTotal.get())
    }
  }

  /** Alg. 1 on graph `g`, using up to `threads` worker threads. */
  def vertexPriority(g: BipartiteGraph, threads: Int = 1): ButterflyCounts = {
    val pool = new WorkerPool(threads)
    try new Combined(g, threads).count(pool) finally pool.close()
  }
}
