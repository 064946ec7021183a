package repro.bipartite

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class ParBSpec extends AnyFunSuite {

  for (seed <- 0 until 15)
    test(s"ParB tips equal BUP tips (seed=$seed)") {
      val nU = 15 + 4 * seed
      val nV = 10 + 3 * seed
      val g = TestGraphs.random(nU, nV, 5 * (nU + nV), seed)
      val bup = BUP.run(g).tips
      val parb = ParB.run(g, threads = 4).tips
      assert(parb.toSeq == bup.toSeq, s"seed=$seed")
    }

  test("ParB with 1 thread equals ParB with 8 threads") {
    val g = TestGraphs.random(120, 90, 1500, seed = 5)
    val a = ParB.run(g, threads = 1).tips
    val b = ParB.run(g, threads = 8).tips
    assert(a.toSeq == b.toSeq)
  }

  test("ParB traverses the same wedges as BUP (no DGM in either)") {
    val g = TestGraphs.random(80, 60, 900, seed = 9)
    val bup = BUP.run(g)
    val parb = ParB.run(g, threads = 4)
    assert(parb.metrics.peelWedges == bup.metrics.peelWedges)
    assert(parb.metrics.peelWedges == g.peelCostU.sum)
  }

  test("ρ is at least the number of distinct tip values and at most |U|") {
    val g = TestGraphs.random(100, 70, 1200, seed = 13)
    val r = ParB.run(g, threads = 4)
    val distinctTips = r.tips.toSet.size
    assert(r.metrics.rounds >= distinctTips)
    assert(r.metrics.rounds <= g.nU)
  }

  test("K_{3,3} peels in one round") {
    val r = ParB.run(TestGraphs.complete(3, 3), threads = 2)
    assert(r.metrics.rounds == 1L)
    assert(r.tips.forall(_ == 6L))
  }

  test("butterfly-free graph peels in one round at support 0") {
    val star = TestGraphs.fromEdges(6, 1, (0 until 6).map(u => (u, 0)))
    val r = ParB.run(star, threads = 2)
    assert(r.metrics.rounds == 1L)
    assert(r.tips.forall(_ == 0L))
  }

  test("ParB's rounds, wedges and tips equal the lazy-heap batch loop's") {
    for (seed <- 1 to 3; g <- Seq(TestGraphs.random(200, 120, 2500, seed), ReceiptLocalSpec.hubGraph(seed));
         cap <- Seq(Long.MaxValue, 5L)) {
      val cnt = ButterflyCounting.vertexPriority(g).cntU
      def peel(loop: (PeelState, (Array[Int], Long) => (Long, Array[Int]), Long => Boolean) => TipResult) = {
        val st = new PeelState(g, enableDGM = false)
        st.setSupports(cnt)
        val pool = new WorkerPool(4)
        try { val update = new BatchUpdate(st, pool); loop(st, update(_, _), _ < cap) } finally pool.close()
      }
      val got = peel(ParB.peel)
      val want = peel(LazyHeapPeel.parB)
      assert(got.tips.sameElements(want.tips), s"seed=$seed cap=$cap")
      assert(got.metrics.peelWedges == want.metrics.peelWedges, s"seed=$seed cap=$cap")
      assert(got.metrics.rounds == want.metrics.rounds, s"seed=$seed cap=$cap")
      if (cap == Long.MaxValue) assert(ParB.run(g, threads = 4).metrics.rounds == want.metrics.rounds)
    }
  }

  test("ParB matches the naive definition oracle on hub-shaped graphs") {
    for (seed <- 1 to 3; hubs <- Seq(3, 4)) {
      val g = ReceiptLocalSpec.hubGraph(seed, nU = 120, nV = 40, m = 900, hubs = hubs)
      assert(ParB.run(g, threads = 4).tips.toSeq == ReferenceTip.tipNumbers(g).toSeq, s"seed=$seed hubs=$hubs")
    }
  }
}
