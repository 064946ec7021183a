package repro.bipartite

import org.scalatest.funsuite.AnyFunSuite
import repro.{ReferenceCounts, TestGraphs}

class ButterflyCountingSpec extends AnyFunSuite {

  private def assertSame(a: Array[Long], b: Array[Long], tag: String): Unit =
    assert(a.toSeq == b.toSeq, s"$tag mismatch")

  test("K_{2,2} is a single butterfly") {
    val c = ButterflyCounting.vertexPriority(TestGraphs.complete(2, 2))
    assert(c.cntU.toSeq == Seq(1L, 1L))
    assert(c.cntV.toSeq == Seq(1L, 1L))
    assert(c.totalButterflies == 1L)
  }

  test("K_{a,b} closed form: ⋈_u = (a-1)·C(b,2)") {
    for ((a, b) <- Seq((2, 3), (3, 3), (3, 5), (4, 4), (5, 2))) {
      val c = ButterflyCounting.vertexPriority(TestGraphs.complete(a, b))
      val expU = (a - 1).toLong * b * (b - 1) / 2
      val expV = (b - 1).toLong * a * (a - 1) / 2
      assert(c.cntU.forall(_ == expU), s"K_{$a,$b} U side")
      assert(c.cntV.forall(_ == expV), s"K_{$a,$b} V side")
      assert(c.totalButterflies == a.toLong * (a - 1) * b * (b - 1) / 4)
    }
  }

  test("path u0-v0-u1 has no butterflies") {
    val c = ButterflyCounting.vertexPriority(TestGraphs.fromEdges(2, 1, Seq((0, 0), (1, 0))))
    assert(c.cntU.forall(_ == 0) && c.cntV.forall(_ == 0))
  }

  test("star has no butterflies") {
    val c = ButterflyCounting.vertexPriority(
      TestGraphs.fromEdges(1, 6, (0 until 6).map(v => (0, v))))
    assert(c.totalButterflies == 0)
  }

  test("six-cycle u0v0u1v1u2v2 has no butterflies (no 4-cycle)") {
    val g = TestGraphs.fromEdges(3, 3, Seq((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)))
    val c = ButterflyCounting.vertexPriority(g)
    assert(c.totalButterflies == 0)
  }

  test("butterfly counts on the paper's fig.1-style shared structure") {
    // u2 and u3 share 3 common neighbours => C(3,2)=3 shared butterflies
    val g = TestGraphs.fromEdges(2, 3, Seq((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)))
    val c = ButterflyCounting.vertexPriority(g)
    assert(c.cntU.toSeq == Seq(3L, 3L))
  }

  test("identity Σ_u ⋈_u = Σ_v ⋈_v = 2·⋈_G on random graphs") {
    for (seed <- 0 until 10) {
      val g = TestGraphs.random(40, 30, 250, seed)
      val c = ButterflyCounting.vertexPriority(g)
      assert(c.cntU.sum == c.cntV.sum, s"seed=$seed")
      assert(c.cntU.sum == 2 * c.totalButterflies, s"seed=$seed")
    }
  }

  for (seed <- 0 until 20)
    test(s"vertex-priority equals brute force (random seed=$seed)") {
      val nU = 10 + seed * 3
      val nV = 8 + seed * 2
      val g = TestGraphs.random(nU, nV, 6 * (nU + nV), seed)
      val fast = ButterflyCounting.vertexPriority(g)
      val slow = ReferenceCounts.bruteForce(g)
      assertSame(fast.cntU, slow.cntU, s"U seed=$seed")
      assertSame(fast.cntV, slow.cntV, s"V seed=$seed")
    }

  for (seed <- 0 until 5)
    test(s"skewed graph: priority equals brute force (seed=$seed)") {
      // hub-heavy: few V vertices carry most edges
      val rnd = new java.util.Random(seed)
      val es = (0 until 900).map { _ =>
        val v = if (rnd.nextDouble() < 0.7) rnd.nextInt(3) else 3 + rnd.nextInt(37)
        (rnd.nextInt(120), v)
      }
      val g = TestGraphs.fromEdges(120, 40, es)
      val fast = ButterflyCounting.vertexPriority(g)
      val slow = ReferenceCounts.bruteForce(g)
      assertSame(fast.cntU, slow.cntU, s"skewed U seed=$seed")
      assertSame(fast.cntV, slow.cntV, s"skewed V seed=$seed")
    }

  test("parallel counting equals sequential") {
    for (seed <- 0 until 5) {
      val g = TestGraphs.random(600, 500, 8000, seed)
      val seq = ButterflyCounting.vertexPriority(g, threads = 1)
      val par = ButterflyCounting.vertexPriority(g, threads = 8)
      assertSame(seq.cntU, par.cntU, s"par U seed=$seed")
      assertSame(seq.cntV, par.cntV, s"par V seed=$seed")
      assert(seq.wedges == par.wedges)
    }
  }

  test("wedge traversal is within the Chiba–Nishizeki bound") {
    for (seed <- 0 until 5) {
      val g = TestGraphs.random(80, 60, 700, seed)
      val c = ButterflyCounting.vertexPriority(g)
      assert(c.wedges <= 2 * g.countCost, s"seed=$seed: ${c.wedges} vs bound ${g.countCost}")
    }
  }

  test("counting is side-symmetric under transpose") {
    val g = TestGraphs.random(50, 35, 400, seed = 11)
    val c = ButterflyCounting.vertexPriority(g)
    val ct = ButterflyCounting.vertexPriority(g.transpose)
    assertSame(c.cntU, ct.cntV, "U vs transposed V")
    assertSame(c.cntV, ct.cntU, "V vs transposed U")
  }

  test("counting on a filtered graph sees only live butterflies") {
    val g = TestGraphs.complete(3, 3)
    val alive = Array(true, true, false)
    val c = ButterflyCounting.vertexPriority(g.filterU(alive))
    // K_{2,3} remains: ⋈_u = 1 * C(3,2) = 3
    assert(c.cntU.toSeq == Seq(3L, 3L, 0L))
    // in place: cumulative deletions from one structure, re-counted each time
    val rnd = new java.util.Random(5)
    for (g <- Seq(TestGraphs.random(700, 500, 8000, seed = 3), ReceiptLocalSpec.hubGraph(1));
         threads <- Seq(1, 4)) {
      val comb = new ButterflyCounting.Combined(g, threads)
      val pool = new WorkerPool(threads)
      try {
        val alive = Array.fill(g.nU)(true)
        for (step <- 0 until 5) {
          for (u <- alive.indices if step > 0 && rnd.nextDouble() < 0.2) alive(u) = false
          comb.retainU(alive)
          val c = comb.count(pool)
          val ref = ReferenceCounts.bruteForce(g.filterU(alive))
          assertSame(c.cntU, ref.cntU, s"U nU=${g.nU} threads=$threads step=$step")
          assertSame(c.cntV, ref.cntV, s"V nU=${g.nU} threads=$threads step=$step")
        }
      } finally pool.close()
    }
  }
}
