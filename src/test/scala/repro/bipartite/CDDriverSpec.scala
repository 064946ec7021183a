package repro.bipartite

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class CDDriverSpec extends AnyFunSuite {
  import ReceiptLocalSpec.hubGraph

  /** `findHi` by its definition: sort by support, prefix-sum `w`, take the
    * first support whose prefix reaches `tgt`, else the maximum; plus one.
    */
  private def findHiByDefinition(sup: Array[Long], w: Array[Long], tgt: Long): Long = {
    val sorted = sup.indices.sortBy(sup(_))
    val prefix = sorted.scanLeft(0L)(_ + w(_)).tail
    sorted.indices.find(prefix(_) >= tgt).fold(sup.max)(k => sup(sorted(k))) + 1
  }

  // Small supports force ties; the last band sits just below Long.MaxValue.
  private val support: Gen[Long] = Gen.frequency(
    3 -> Gen.choose(0L, 5L),
    2 -> Gen.choose(0L, 1000000L),
    1 -> Gen.choose(Long.MaxValue - 8, Long.MaxValue - 1))
  private val weight: Gen[Long] = Gen.frequency(2 -> Gen.const(0L), 3 -> Gen.choose(0L, 1000L))

  /** (supports, weights, tgt): `tgt` ranges past the total, so it is
    * sometimes unreachable.
    */
  private val instance: Gen[(Array[Long], Array[Long], Long)] = for {
    n <- Gen.choose(1, 80)
    sup <- Gen.listOfN(n, support)
    w <- Gen.listOfN(n, weight)
    tgt <- Gen.choose(1L, w.sum + 20)
  } yield (sup.toArray, w.toArray, tgt)

  test("weighted quickselect findHi equals the sort-and-prefix-sum definition") {
    val prop = Prop.forAll(instance) { case (sup, w, tgt) =>
      val want = findHiByDefinition(sup, w, tgt)
      val got = ReceiptLocal.findHi(sup.clone(), w.clone(), sup.length, tgt)
      val unreachable = ReceiptLocal.findHi(sup.clone(), w.clone(), sup.length, w.sum + 1)
      got == want && unreachable == sup.max + 1
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status)
  }

  test("findHi reads only the first n entries") {
    val sup = Array(7L, 3L, 3L, 0L, 0L)
    val w = Array(1L, 2L, 2L, 100L, 100L)
    assert(ReceiptLocal.findHi(sup.clone(), w.clone(), 3, 3) == 4L)
    assert(ReceiptLocal.findHi(sup.clone(), w.clone(), 3, 5) == 8L)
    assert(ReceiptLocal.findHi(sup.clone(), w.clone(), 3, 6) == 8L)
  }

  for (huc <- Seq(true, false); t <- Seq(1, 4))
    test(s"the live-list driver equals the full-scan driver (HUC=$huc, threads=$t)") {
      val graphs = (1 to 3).map(hubGraph(_)) :+ TestGraphs.random(300, 200, 5000, seed = 7)
      for ((g, k) <- graphs.zipWithIndex) {
        val c = ReceiptLocal.Config(P = 5, threads = t, enableHUC = huc)
        val got = ReceiptLocal.coarseDecomposition(g, c)
        val want = FullScanCD.coarseDecomposition(g, c)
        if (huc && k < 3) assert(want.hucTriggers > 0, s"expected HUC to fire on hub graph $k")
        assert(got.subsetOf.toSeq == want.subsetOf.toSeq, s"graph $k")
        assert(got.supInit.toSeq == want.supInit.toSeq, s"graph $k")
        assert(got.lo.toSeq == want.lo.toSeq && got.hi.toSeq == want.hi.toSeq, s"graph $k")
        assert(got.subsetWedgeW.toSeq == want.subsetWedgeW.toSeq, s"graph $k")
        assert((got.rounds, got.hucTriggers, got.hucWedges, got.peelWedges, got.cntInitWedges) ==
          ((want.rounds, want.hucTriggers, want.hucWedges, want.peelWedges, want.cntInitWedges)), s"graph $k")
      }
    }

  for (t <- Seq(1, 4))
    test(s"BatchUpdate touches the same distinct live vertices as the boxed round (threads=$t)") {
      for (g <- Seq(TestGraphs.random(200, 120, 2500, seed = 5), hubGraph(2))) {
        val cnt = ButterflyCounting.vertexPriority(g).cntU
        val (a, b) = (new PeelState(g, enableDGM = true), new PeelState(g, enableDGM = true))
        a.setSupports(cnt); b.setSupports(cnt)
        val pool = new WorkerPool(t)
        try {
          val (ua, ub) = (new BatchUpdate(a, pool), new BoxedBatchUpdate(b, pool))
          val rnd = new java.util.Random(t)
          var round = 0
          while (a.aliveCount > 0) {
            val live = (0 until g.nU).filter(a.alive)
            val batch = live.filter(_ => rnd.nextInt(4) == 0).take(1 + rnd.nextInt(40)).toArray
            val cap = if (round % 3 == 0) 0L else cnt(live(rnd.nextInt(live.size))) / 2
            batch.foreach { u => a.markPeeled(u); b.markPeeled(u) }
            val (wa, ta) = ua(batch, cap)
            val (wb, tb) = ub(batch, cap)
            assert(wa == wb, s"round $round")
            // which thread reports a vertex first races once a decrement
            // reaches the cap, so the order may differ; the set may not
            assert(ta.distinct.length == ta.length, s"round $round")
            assert(ta.sorted.toSeq == tb.sorted.toSeq, s"round $round")
            assert(ta.forall(a.alive), s"round $round")
            assert((0 until g.nU).forall(u => a.sup.get(u) == b.sup.get(u)), s"round $round")
            a.chargeWedges(wa); b.chargeWedges(wb)
            round += 1
          }
        } finally pool.close()
      }
    }
}
