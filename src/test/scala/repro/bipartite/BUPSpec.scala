package repro.bipartite

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class BUPSpec extends AnyFunSuite {

  test("K_{2,2}: every u has tip number 1") {
    val r = BUP.run(TestGraphs.complete(2, 2))
    assert(r.tips.toSeq == Seq(1L, 1L))
  }

  test("K_{3,3}: every u has tip number 6") {
    // each u participates in 2*C(3,2)=6 butterflies; the whole graph is a 6-tip
    val r = BUP.run(TestGraphs.complete(3, 3))
    assert(r.tips.toSeq == Seq(6L, 6L, 6L))
  }

  test("butterfly-free graphs decompose to all zeros") {
    val star = TestGraphs.fromEdges(4, 1, (0 until 4).map(u => (u, 0)))
    assert(BUP.run(star).tips.forall(_ == 0L))
    val cycle = TestGraphs.fromEdges(3, 3, Seq((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)))
    assert(BUP.run(cycle).tips.forall(_ == 0L))
  }

  test("K_{2,3} plus pendant vertex: pendant peels at 0, clique at 3") {
    // u0,u1 form K_{2,3}; u2 attaches to a single v
    val es = Seq((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0))
    val r = BUP.run(TestGraphs.fromEdges(3, 3, es))
    assert(r.tips.toSeq == Seq(3L, 3L, 0L))
  }

  test("two disjoint butterflies both get tip 1") {
    val es = Seq((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3))
    val r = BUP.run(TestGraphs.fromEdges(4, 4, es))
    assert(r.tips.toSeq == Seq(1L, 1L, 1L, 1L))
  }

  test("hierarchy: dense K_{3,3} with a loosely attached vertex") {
    // u3 shares only v0,v1 with the clique: ⋈_{u3} = 3 * C(2,2) = 3
    val es = (for (u <- 0 until 3; v <- 0 until 3) yield (u, v)) :+ (3, 0) :+ (3, 1)
    val r = BUP.run(TestGraphs.fromEdges(4, 3, es))
    assert(r.tips(3) == 3L)
    assert(r.tips.take(3).forall(_ == 6L)) // clique survives at its own level
  }

  for (seed <- 0 until 20)
    test(s"BUP matches the naive definition oracle (seed=$seed)") {
      val nU = 8 + seed
      val nV = 6 + (seed % 7)
      val g = TestGraphs.random(nU, nV, 4 * (nU + nV), seed)
      val fast = BUP.run(g).tips
      val slow = ReferenceTip.tipNumbers(g)
      assert(fast.toSeq == slow.toSeq, s"seed=$seed")
    }

  for (seed <- 0 until 5)
    test(s"BUP matches oracle on dense skewed graphs (seed=$seed)") {
      val rnd = new java.util.Random(seed * 31 + 1)
      val es = (0 until 260).map(_ => (rnd.nextInt(14), if (rnd.nextDouble() < 0.6) rnd.nextInt(3) else rnd.nextInt(12)))
      val g = TestGraphs.fromEdges(14, 12, es)
      assert(BUP.run(g).tips.toSeq == ReferenceTip.tipNumbers(g).toSeq)
    }

  test("tips are assigned in non-decreasing peel order (supports never dip below last tip)") {
    val g = TestGraphs.random(60, 40, 500, seed = 42)
    val counts = ButterflyCounting.vertexPriority(g)
    val r = BUP.peel(g, counts.cntU, Array.tabulate(g.nU)(identity), enableDGM = false)
    // every tip is between 0 and the vertex's initial butterfly count
    for (u <- 0 until g.nU) {
      assert(r.tips(u) >= 0 && r.tips(u) <= counts.cntU(u))
    }
  }

  test("peel on an induced subset only assigns tips to members") {
    val g = TestGraphs.random(30, 20, 200, seed = 1)
    val members = Array(0, 5, 7, 9)
    val mask = new Array[Boolean](g.nU)
    members.foreach(mask(_) = true)
    val induced = g.filterU(mask)
    val counts = ButterflyCounting.vertexPriority(induced)
    val r = BUP.peel(induced, counts.cntU, members, enableDGM = false)
    for (u <- 0 until g.nU)
      if (members.contains(u)) assert(r.tips(u) >= 0) else assert(r.tips(u) == -1L)
  }

  test("DGM on/off yields identical tips for plain BUP peel") {
    val g = TestGraphs.random(50, 40, 450, seed = 17)
    val counts = ButterflyCounting.vertexPriority(g)
    val all = Array.tabulate(g.nU)(identity)
    val a = BUP.peel(g, counts.cntU, all, enableDGM = false)
    val b = BUP.peel(g, counts.cntU, all, enableDGM = true)
    assert(a.tips.toSeq == b.tips.toSeq)
    assert(b.metrics.peelWedges <= a.metrics.peelWedges, "DGM must not increase traversal")
  }

  test("metrics: peel wedges equal the analytic Σ_u Σ_{v∈N_u} d_v without DGM") {
    val g = TestGraphs.random(40, 30, 300, seed = 23)
    val r = BUP.run(g)
    assert(r.metrics.peelWedges == g.peelCostU.sum)
  }

  test("BUP.peel equals the lazy-heap peel on tips and wedges, DGM on and off") {
    for (seed <- 1 to 3; g <- Seq(TestGraphs.random(200, 120, 2500, seed), ReceiptLocalSpec.hubGraph(seed));
         dgm <- Seq(false, true)) {
      val cnt = ButterflyCounting.vertexPriority(g).cntU
      val all = Array.range(0, g.nU)
      val got = BUP.peel(g, cnt, all, dgm)
      val want = LazyHeapPeel.bup(g, cnt, all, dgm)
      assert(got.tips.sameElements(want.tips), s"seed=$seed dgm=$dgm")
      assert(got.metrics.peelWedges == want.metrics.peelWedges, s"seed=$seed dgm=$dgm")
    }
  }

  test("BUP matches the naive definition oracle on hub-shaped graphs") {
    for (seed <- 1 to 3; hubs <- Seq(3, 4)) {
      val g = ReceiptLocalSpec.hubGraph(seed, nU = 120, nV = 40, m = 900, hubs = hubs)
      assert(BUP.run(g).tips.toSeq == ReferenceTip.tipNumbers(g).toSeq, s"seed=$seed hubs=$hubs")
    }
  }
}
