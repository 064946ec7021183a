package repro.bipartite

/** The min-support peel loops of [[BUP.peel]] and [[ParB.peel]] on a
  * lazy-deletion binary heap of packed `(support << 21) | id` keys, which
  * pushes one new entry per support change and discards stale entries when
  * they surface. Its live entries are exactly `(⋈_u, u)` for live `u`, so
  * the indexed heap must pop the same vertices in the same order: tests
  * compare tips, wedges (hence DGM compaction points) and rounds bit for
  * bit. The packing limits it to `nU < 2^21` and supports below `2^42`.
  */
object LazyHeapPeel {
  private val IdBits = 21

  private def pack(sup: Long, u: Int): Long = {
    require(u < (1 << IdBits) && sup < (1L << (63 - IdBits)), s"($sup, $u) does not pack")
    (sup << IdBits) | u
  }
  private def unpackSup(x: Long): Long = x >>> IdBits
  private def unpackId(x: Long): Int = (x & ((1L << IdBits) - 1)).toInt

  private final class LongMinHeap {
    private var a = new Array[Long](16)
    private var n = 0

    def isEmpty: Boolean = n == 0
    def peek: Long = a(0)

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

  /** [[BUP.peel]]'s loop: tips (-1 for non-members) and peel wedges. */
  def bup(g: BipartiteGraph, initSup: Array[Long], members: Array[Int], enableDGM: Boolean): TipResult = {
    val st = new PeelState(g, enableDGM)
    val inSet = new Array[Boolean](g.nU)
    members.foreach(inSet(_) = true)
    for (u <- 0 until g.nU if !inSet(u)) st.alive(u) = false

    val heap = new LongMinHeap
    members.foreach { v => st.sup.set(v, initSup(v)); heap.push(pack(initSup(v), v)) }
    val tips = Array.fill[Long](g.nU)(-1L)
    val wdg = new Array[Int](g.nU)
    val touched = new Array[Int](g.nU)
    var peelWedges = 0L
    var remaining = members.length
    while (remaining > 0) {
      val top = heap.pop()
      val u0 = unpackId(top)
      val s0 = unpackSup(top)
      if (st.alive(u0) && st.sup.get(u0) == s0) { // not stale
        tips(u0) = s0
        st.markPeeled(u0)
        remaining -= 1
        val w = st.update(u0, s0, wdg, touched, (u2, ns) => heap.push(pack(ns, u2)))
        peelWedges += w
        st.chargeWedges(w)
      }
    }
    TipResult(tips, PeelMetrics(0L, peelWedges, 0L, 0.0, 0.0))
  }

  /** [[ParB.peel]]'s loop: tips (-1 where not reached), wedges and rounds. */
  def parB(st: PeelState, round: (Array[Int], Long) => (Long, Array[Int]),
           more: Long => Boolean): TipResult = {
    val nU = st.g.nU
    val heap = new LongMinHeap
    for (u <- 0 until nU if st.alive(u)) heap.push(pack(st.sup.get(u), u))
    val tips = Array.fill[Long](nU)(-1L)
    val buf = new Array[Int](nU)
    var rounds = 0L
    var wedges = 0L
    while (st.aliveCount > 0 && more(rounds)) {
      var nB = 0
      var minSup = -1L
      var gathering = true
      while (gathering && !heap.isEmpty) {
        val top = heap.peek
        val cand = unpackId(top)
        val cSup = unpackSup(top)
        if (!st.alive(cand) || st.sup.get(cand) != cSup) heap.pop() // stale
        else if (minSup < 0 || cSup == minSup) {
          if (minSup < 0) minSup = cSup
          heap.pop(); buf(nB) = cand; nB += 1
        } else gathering = false
      }
      require(nB > 0, "heap exhausted with vertices remaining")
      val batch = java.util.Arrays.copyOf(buf, nB)
      batch.foreach { b => tips(b) = minSup; st.markPeeled(b) }
      val (w, touchedU) = round(batch, minSup)
      wedges += w
      touchedU.foreach(u2 => heap.push(pack(st.sup.get(u2), u2)))
      rounds += 1
    }
    TipResult(tips, PeelMetrics(0L, wedges, rounds, 0.0, 0.0))
  }
}
