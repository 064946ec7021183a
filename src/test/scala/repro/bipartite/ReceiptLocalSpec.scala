package repro.bipartite

import org.scalatest.funsuite.AnyFunSuite
import repro.ReferenceCounts

class ReceiptLocalSpec extends AnyFunSuite {

  private def cfg(p: Int, huc: Boolean = true, dgm: Boolean = true, t: Int = 4) =
    ReceiptLocal.Config(P = p, threads = t, enableHUC = huc, enableDGM = dgm)

  /** A hub graph: 80% of its edges land on 4 of its 100 V vertices. */
  private def hubGraph(seed: Long): BipartiteGraph = {
    val rnd = new java.util.Random(seed)
    // few V hubs with huge degree => peel cost >> count cost => HUC triggers
    val es = (0 until 3000).map { _ =>
      val v = if (rnd.nextDouble() < 0.8) rnd.nextInt(4) else 4 + rnd.nextInt(96)
      (rnd.nextInt(400), v)
    }
    BipartiteGraph.fromEdges(400, 100, es)
  }

  for (seed <- 0 until 15)
    test(s"RECEIPT tips equal BUP tips (seed=$seed, P=4)") {
      val nU = 20 + 6 * seed
      val nV = 15 + 4 * seed
      val g = BipartiteGraph.random(nU, nV, 6 * (nU + nV), seed)
      val bup = BUP.run(g).tips
      val rec = ReceiptLocal.run(g, cfg(4)).tips
      assert(rec.toSeq == bup.toSeq, s"seed=$seed")
    }

  for (p <- Seq(1, 2, 3, 8, 16, 64))
    test(s"RECEIPT is invariant to the number of partitions (P=$p)") {
      val g = BipartiteGraph.random(90, 70, 900, seed = 3)
      val bup = BUP.run(g).tips
      assert(ReceiptLocal.run(g, cfg(p)).tips.toSeq == bup.toSeq)
    }

  for ((huc, dgm) <- Seq((false, false), (true, false), (false, true), (true, true)))
    test(s"RECEIPT invariant to optimizations (HUC=$huc, DGM=$dgm)") {
      val g = BipartiteGraph.random(80, 50, 800, seed = 21)
      val bup = BUP.run(g).tips
      assert(ReceiptLocal.run(g, cfg(5, huc, dgm)).tips.toSeq == bup.toSeq)
    }

  test("RECEIPT single-threaded equals multi-threaded") {
    val g = BipartiteGraph.random(150, 100, 2500, seed = 8)
    val a = ReceiptLocal.run(g, cfg(6, t = 1)).tips
    val b = ReceiptLocal.run(g, cfg(6, t = 8)).tips
    assert(a.toSeq == b.toSeq)
  }

  test("RECEIPT on skewed hub graphs equals BUP (HUC territory)") {
    for (seed <- 0 until 5) {
      val g = hubGraph(seed)
      val bup = BUP.run(g).tips
      val rec = ReceiptLocal.run(g, cfg(5))
      assert(rec.tips.toSeq == bup.toSeq, s"seed=$seed")
    }
  }

  test("HUC actually triggers on hub-dominated graphs and reduces wedges") {
    val rnd = new java.util.Random(99)
    val es = (0 until 6000).map { _ =>
      val v = if (rnd.nextDouble() < 0.85) rnd.nextInt(3) else 3 + rnd.nextInt(197)
      (rnd.nextInt(800), v)
    }
    val g = BipartiteGraph.fromEdges(800, 200, es)
    val withHuc = ReceiptLocal.run(g, cfg(6, huc = true, dgm = false))
    val noHuc   = ReceiptLocal.run(g, cfg(6, huc = false, dgm = false))
    assert(withHuc.tips.toSeq == noHuc.tips.toSeq)
    assert(withHuc.metrics.hucTriggers > 0, "expected HUC to fire on hub graph")
    assert(withHuc.metrics.totalWedges < noHuc.metrics.totalWedges,
      s"HUC should reduce traversal: ${withHuc.metrics.totalWedges} vs ${noHuc.metrics.totalWedges}")
  }

  test("DGM reduces (or preserves) wedge traversal") {
    val g = BipartiteGraph.random(300, 200, 5000, seed = 7)
    val withDgm = ReceiptLocal.run(g, cfg(5, huc = false, dgm = true))
    val noDgm   = ReceiptLocal.run(g, cfg(5, huc = false, dgm = false))
    assert(withDgm.tips.toSeq == noDgm.tips.toSeq)
    assert(withDgm.metrics.totalWedges <= noDgm.metrics.totalWedges)
  }

  test("CD ranges are contiguous, non-overlapping, and cover [0, ∞)") {
    val g = BipartiteGraph.random(120, 80, 1500, seed = 11)
    val cd = ReceiptLocal.coarseDecomposition(g, cfg(5))
    assert(cd.lo(0) == 0L)
    for (i <- 1 until cd.subsets) assert(cd.lo(i) == cd.hi(i - 1), s"range $i not contiguous")
    for (i <- 0 until cd.subsets) assert(cd.hi(i) > cd.lo(i))
  }

  test("lemmas 3+4: every vertex's exact tip number falls inside its CD range") {
    for (seed <- 0 until 8) {
      val g = BipartiteGraph.random(70, 50, 700, seed)
      val tips = BUP.run(g).tips
      val cd = ReceiptLocal.coarseDecomposition(g, cfg(4))
      for (u <- 0 until g.nU) {
        val i = cd.subsetOf(u)
        assert(i >= 0, s"unassigned vertex $u")
        assert(tips(u) >= cd.lo(i) && tips(u) < cd.hi(i),
          s"seed=$seed u=$u tip=${tips(u)} not in [${cd.lo(i)}, ${cd.hi(i)})")
      }
    }
  }

  test("⋈^init is the butterfly count w.r.t. vertices in the same or higher subsets") {
    val g = BipartiteGraph.random(50, 40, 500, seed = 19)
    val cd = ReceiptLocal.coarseDecomposition(g, cfg(4))
    for (u <- 0 until g.nU) {
      val i = cd.subsetOf(u)
      val mask = Array.tabulate(g.nU)(x => cd.subsetOf(x) >= i)
      val live = ReferenceCounts.bruteForce(g.filterU(mask))
      assert(cd.supInit(u) == live.cntU(u),
        s"u=$u subset=$i supInit=${cd.supInit(u)} expected=${live.cntU(u)}")
    }
  }

  test("every vertex is assigned to exactly one subset") {
    val g = BipartiteGraph.random(100, 60, 1000, seed = 29)
    val cd = ReceiptLocal.coarseDecomposition(g, cfg(6))
    assert(cd.subsetOf.forall(_ >= 0))
    assert(cd.subsetOf.forall(_ < cd.subsets))
    val sizes = Array.fill(cd.subsets)(0)
    cd.subsetOf.foreach(sizes(_) += 1)
    assert(sizes.sum == g.nU)
  }

  test("subsets never exceed P+1") {
    for (p <- Seq(1, 3, 10)) {
      val g = BipartiteGraph.random(60, 40, 600, seed = 31)
      val cd = ReceiptLocal.coarseDecomposition(g, cfg(p))
      assert(cd.subsets <= p + 1, s"P=$p got ${cd.subsets}")
    }
  }

  test("RECEIPT synchronization rounds are far below ParB's on larger graphs") {
    val g = BipartiteGraph.random(500, 300, 9000, seed = 37)
    val parb = ParB.run(g, threads = 4)
    val rec = ReceiptLocal.run(g, cfg(6))
    assert(rec.tips.toSeq == parb.tips.toSeq)
    assert(rec.metrics.rounds < parb.metrics.rounds / 4,
      s"ρ_RECEIPT=${rec.metrics.rounds} ρ_ParB=${parb.metrics.rounds}")
  }

  test("FD traverses only induced-subgraph wedges (fewer than CD)") {
    val g = BipartiteGraph.random(200, 150, 3000, seed = 41)
    val rec = ReceiptLocal.run(g, cfg(8, huc = false))
    assert(rec.metrics.fdWedges <= rec.metrics.cdPeelWedges,
      s"FD=${rec.metrics.fdWedges} CD=${rec.metrics.cdPeelWedges}")
  }

  test("complete graph and butterfly-free graph edge cases") {
    assert(ReceiptLocal.run(BipartiteGraph.complete(3, 3), cfg(3)).tips.forall(_ == 6L))
    val star = BipartiteGraph.fromEdges(5, 1, (0 until 5).map(u => (u, 0)))
    assert(ReceiptLocal.run(star, cfg(3)).tips.forall(_ == 0L))
    // K_{3,3} on the odd U vertices; the even ones are isolated
    val sparse = BipartiteGraph.fromEdges(7, 3, for (u <- Seq(1, 3, 5); v <- 0 until 3) yield (u, v))
    assert(ReceiptLocal.run(sparse, cfg(3)).tips.toSeq == Seq(0L, 6L, 0L, 6L, 0L, 6L, 0L))
  }

  test("FD rethrows a failing task instead of returning unset tips") {
    val g = BipartiteGraph.random(200, 150, 3000, seed = 41)
    val cd = ReceiptLocal.coarseDecomposition(g, cfg(8))
    intercept[ArrayIndexOutOfBoundsException] {
      ReceiptLocal.fineDecomposition(g, cd.copy(supInit = cd.supInit.take(10)), cfg(8))
    }
  }

  for (dgm <- Seq(false, true))
    test(s"the FD subset task on compact ids equals BUP.peel on the induced graph (DGM=$dgm)") {
      for (g <- Seq(BipartiteGraph.random(300, 200, 5000, seed = 7), hubGraph(3))) {
        val cd = ReceiptLocal.coarseDecomposition(g, cfg(5, dgm = dgm))
        // the task list: one task per subset, largest wedge proxy first
        val tasks = ReceiptLocal.fdTasks(g, cd)
        val order = tasks.map(t => cd.subsetOf(t.members.head))
        assert(order.sorted.toSeq == (0 until cd.subsets))
        assert(order.map(cd.subsetWedgeW).toSeq == order.map(cd.subsetWedgeW).sortBy(-_).toSeq)
        for ((task, i) <- tasks.zip(order)) {
          val members = (0 until g.nU).filter(cd.subsetOf(_) == i).toArray
          val induced = g.filterU(Array.tabulate(g.nU)(cd.subsetOf(_) == i))
          assert(task.members.toSeq == members.toSeq, s"subset $i")
          assert(task.initSup.toSeq == members.toSeq.map(cd.supInit), s"subset $i")
          assert(task.edges.toSeq == induced.packedEdges.toSeq, s"subset $i")
          val ref = BUP.peel(induced, cd.supInit, members, enableDGM = dgm)
          val (tips, wedges) = task.peel(dgm)
          assert(tips.toSeq == members.toSeq.map(ref.tips), s"subset $i")
          assert(wedges == ref.metrics.peelWedges, s"subset $i")
        }
      }
    }

  test("P=1 degenerates to a single coarse subset peeled exactly by FD") {
    val g = BipartiteGraph.random(60, 40, 500, seed = 43)
    val r = ReceiptLocal.run(g, cfg(1))
    assert(r.tips.toSeq == BUP.run(g).tips.toSeq)
    assert(r.cd.subsets <= 2)
  }
}
