package repro.bipartite

import repro.TestGraphs.GraphOps

/** Definition-level tip decomposition oracle: repeatedly re-counts
  * butterflies among the remaining vertices from scratch (brute force) and
  * removes one minimum vertex, assigning `θ = max(θ so far, its count)`.
  * O(|U|·Σ d²) — strictly for cross-checking the fast kernels on tiny
  * graphs in tests.
  */
object ReferenceTip {

  def tipNumbers(g: BipartiteGraph): Array[Long] = {
    val nU = g.nU
    val alive = Array.fill(nU)(true)
    val tips = new Array[Long](nU)
    var remaining = nU
    var k = 0L
    while (remaining > 0) {
      // butterflies of each live u among live vertices
      val cnt = new Array[Long](nU)
      val common = new scala.collection.mutable.HashMap[Int, Int]()
      var u = 0
      while (u < nU) {
        if (alive(u)) {
          common.clear()
          g.foreachNbrU(u)(v => g.foreachNbrV(v)(u2 =>
            if (u2 != u && alive(u2)) common(u2) = common.getOrElse(u2, 0) + 1))
          cnt(u) = common.valuesIterator.map(c => c.toLong * (c - 1) / 2).sum
        }
        u += 1
      }
      var best = -1
      u = 0
      while (u < nU) {
        if (alive(u) && (best < 0 || cnt(u) < cnt(best))) best = u
        u += 1
      }
      k = math.max(k, cnt(best))
      tips(best) = k
      alive(best) = false
      remaining -= 1
    }
    tips
  }
}
