package repro.bipartite

import org.scalatest.funsuite.AnyFunSuite
import repro.{BipartiteGen, ReferenceCounts, TestGraphs}
import repro.TestGraphs.GraphOps

object ReceiptLocalSpec {

  /** A hub graph: 80% of its `m` random edges land on `hubs` of its `nV`
    * V vertices (by default 4 of 100, over 400 U vertices).
    */
  def hubGraph(seed: Long, nU: Int = 400, nV: Int = 100, m: Int = 3000, hubs: Int = 4): BipartiteGraph = {
    val rnd = new java.util.Random(seed)
    // few V hubs with huge degree => peel cost >> count cost => HUC triggers
    val es = (0 until m).map { _ =>
      val v = if (rnd.nextDouble() < 0.8) rnd.nextInt(hubs) else hubs + rnd.nextInt(nV - hubs)
      (rnd.nextInt(nU), v)
    }
    TestGraphs.fromEdges(nU, nV, es)
  }
}

class ReceiptLocalSpec extends AnyFunSuite {
  import ReceiptLocalSpec.hubGraph

  private def cfg(p: Int, huc: Boolean = true, dgm: Boolean = true, t: Int = 4) =
    ReceiptLocal.Config(P = p, threads = t, enableHUC = huc, enableDGM = dgm)

  for (seed <- 0 until 15)
    test(s"RECEIPT tips equal BUP tips (seed=$seed, P=4)") {
      val nU = 20 + 6 * seed
      val nV = 15 + 4 * seed
      val g = TestGraphs.random(nU, nV, 6 * (nU + nV), seed)
      val bup = BUP.run(g).tips
      val rec = ReceiptLocal.run(g, cfg(4)).tips
      assert(rec.toSeq == bup.toSeq, s"seed=$seed")
    }

  for (p <- Seq(1, 2, 3, 8, 16, 64))
    test(s"RECEIPT is invariant to the number of partitions (P=$p)") {
      val g = TestGraphs.random(90, 70, 900, seed = 3)
      val bup = BUP.run(g).tips
      assert(ReceiptLocal.run(g, cfg(p)).tips.toSeq == bup.toSeq)
    }

  for ((huc, dgm) <- Seq((false, false), (true, false), (false, true), (true, true)))
    test(s"RECEIPT invariant to optimizations (HUC=$huc, DGM=$dgm)") {
      val g = TestGraphs.random(80, 50, 800, seed = 21)
      val bup = BUP.run(g).tips
      assert(ReceiptLocal.run(g, cfg(5, huc, dgm)).tips.toSeq == bup.toSeq)
    }

  test("RECEIPT single-threaded equals multi-threaded") {
    val g = TestGraphs.random(150, 100, 2500, seed = 8)
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
    val g = TestGraphs.fromEdges(800, 200, es)
    val withHuc = ReceiptLocal.run(g, cfg(6, huc = true, dgm = false))
    val noHuc   = ReceiptLocal.run(g, cfg(6, huc = false, dgm = false))
    assert(withHuc.tips.toSeq == noHuc.tips.toSeq)
    assert(withHuc.metrics.hucTriggers > 0, "expected HUC to fire on hub graph")
    // re-count time is measured on its own, as part of CD time
    assert(withHuc.metrics.hucTimeMs > 0 && withHuc.metrics.hucTimeMs <= withHuc.cd.peelTimeMs)
    assert(noHuc.metrics.hucTriggers == 0 && noHuc.metrics.hucTimeMs == 0.0)
    assert(withHuc.metrics.totalWedges < noHuc.metrics.totalWedges,
      s"HUC should reduce traversal: ${withHuc.metrics.totalWedges} vs ${noHuc.metrics.totalWedges}")
  }

  test("in-place HUC re-counts give the same CD as re-counting a filtered copy") {
    val hubs = Seq(1, 2, 3).map(hubGraph(_))
    for (g <- hubs :+ TestGraphs.random(300, 200, 5000, seed = 7)) {
      val c = cfg(5)
      val cd = ReceiptLocal.coarseDecomposition(g, c)
      // the reference: every re-count builds a fresh structure on g.filterU
      val counts = ButterflyCounting.vertexPriority(g, c.threads)
      val st = new PeelState(g, c.enableDGM)
      st.setSupports(counts.cntU)
      val pool = new WorkerPool(c.threads)
      val ref = try {
        val update = new BatchUpdate(st, pool)
        ReceiptLocal.coarseDecomposition(st, c.P, enableHUC = true, counts.wedges, 0.0, new ReceiptLocal.CDRounds {
          def peelCost(u: Int): Long = st.storedPeelCost(u)
          def peel(batch: Array[Int], capFloor: Long): (Long, Array[Int]) = update(batch, capFloor)
          def recount(): (Array[Long], Long) = {
            val rc = ButterflyCounting.vertexPriority(g.filterU(st.alive), c.threads)
            (rc.cntU, rc.wedges)
          }
        })
      } finally pool.close()
      if (hubs.contains(g)) assert(ref.hucTriggers > 0, "expected HUC to fire on hub graph")
      assert(cd.subsetOf.toSeq == ref.subsetOf.toSeq)
      assert(cd.supInit.toSeq == ref.supInit.toSeq)
      assert(cd.lo.toSeq == ref.lo.toSeq && cd.hi.toSeq == ref.hi.toSeq)
      assert((cd.rounds, cd.hucTriggers, cd.peelWedges) == ((ref.rounds, ref.hucTriggers, ref.peelWedges)))
    }
  }

  test("CD's partition does not depend on HUC or DGM") {
    // En at 5% scale: one CD there both peels and re-counts, while every
    // hub graph re-counts in every round
    val en = {
      val c = BipartiteGen.byName("En")
      BipartiteGen.generate(c.copy(nU = c.nU / 20, nV = c.nV / 20, targetM = c.targetM / 20, seed = 7))
    }
    val mixed = ReceiptLocal.coarseDecomposition(en, cfg(5))
    assert(mixed.hucTriggers > 0 && mixed.peelWedges > 0, "expected both peel rounds and re-counts")
    for (g <- Seq(1, 2, 3).map(hubGraph(_)) ++ Seq(TestGraphs.random(300, 200, 5000, seed = 7), en)) {
      val Seq(ref, cds @ _*) =
        for (huc <- Seq(false, true); dgm <- Seq(false, true))
          yield ReceiptLocal.coarseDecomposition(g, cfg(5, huc, dgm))
      for (cd <- cds) {
        assert(cd.subsetOf.toSeq == ref.subsetOf.toSeq)
        assert(cd.supInit.toSeq == ref.supInit.toSeq)
        assert(cd.lo.toSeq == ref.lo.toSeq && cd.hi.toSeq == ref.hi.toSeq)
        assert(cd.rounds == ref.rounds)
      }
    }
  }

  test("DGM reduces (or preserves) wedge traversal") {
    val g = TestGraphs.random(300, 200, 5000, seed = 7)
    val withDgm = ReceiptLocal.run(g, cfg(5, huc = false, dgm = true))
    val noDgm   = ReceiptLocal.run(g, cfg(5, huc = false, dgm = false))
    assert(withDgm.tips.toSeq == noDgm.tips.toSeq)
    assert(withDgm.metrics.totalWedges <= noDgm.metrics.totalWedges)
  }

  test("CD ranges are contiguous, non-overlapping, and cover [0, ∞)") {
    val g = TestGraphs.random(120, 80, 1500, seed = 11)
    val cd = ReceiptLocal.coarseDecomposition(g, cfg(5))
    assert(cd.lo(0) == 0L)
    for (i <- 1 until cd.subsets) assert(cd.lo(i) == cd.hi(i - 1), s"range $i not contiguous")
    for (i <- 0 until cd.subsets) assert(cd.hi(i) > cd.lo(i))
  }

  test("lemmas 3+4: every vertex's exact tip number falls inside its CD range") {
    for (seed <- 0 until 8) {
      val g = TestGraphs.random(70, 50, 700, seed)
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
    val g = TestGraphs.random(50, 40, 500, seed = 19)
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
    val g = TestGraphs.random(100, 60, 1000, seed = 29)
    val cd = ReceiptLocal.coarseDecomposition(g, cfg(6))
    assert(cd.subsetOf.forall(_ >= 0))
    assert(cd.subsetOf.forall(_ < cd.subsets))
    val sizes = Array.fill(cd.subsets)(0)
    cd.subsetOf.foreach(sizes(_) += 1)
    assert(sizes.sum == g.nU)
  }

  test("subsets never exceed P+1") {
    for (p <- Seq(1, 3, 10)) {
      val g = TestGraphs.random(60, 40, 600, seed = 31)
      val cd = ReceiptLocal.coarseDecomposition(g, cfg(p))
      assert(cd.subsets <= p + 1, s"P=$p got ${cd.subsets}")
    }
  }

  test("RECEIPT synchronization rounds are far below ParB's on larger graphs") {
    val g = TestGraphs.random(500, 300, 9000, seed = 37)
    val parb = ParB.run(g, threads = 4)
    val rec = ReceiptLocal.run(g, cfg(6))
    assert(rec.tips.toSeq == parb.tips.toSeq)
    assert(rec.metrics.rounds < parb.metrics.rounds / 4,
      s"ρ_RECEIPT=${rec.metrics.rounds} ρ_ParB=${parb.metrics.rounds}")
  }

  test("FD traverses only induced-subgraph wedges (fewer than CD)") {
    val g = TestGraphs.random(200, 150, 3000, seed = 41)
    val rec = ReceiptLocal.run(g, cfg(8, huc = false))
    assert(rec.metrics.fdWedges <= rec.metrics.cdPeelWedges,
      s"FD=${rec.metrics.fdWedges} CD=${rec.metrics.cdPeelWedges}")
  }

  test("complete graph and butterfly-free graph edge cases") {
    assert(ReceiptLocal.run(TestGraphs.complete(3, 3), cfg(3)).tips.forall(_ == 6L))
    val star = TestGraphs.fromEdges(5, 1, (0 until 5).map(u => (u, 0)))
    assert(ReceiptLocal.run(star, cfg(3)).tips.forall(_ == 0L))
    // K_{3,3} on the odd U vertices; the even ones are isolated
    val sparse = TestGraphs.fromEdges(7, 3, for (u <- Seq(1, 3, 5); v <- 0 until 3) yield (u, v))
    assert(ReceiptLocal.run(sparse, cfg(3)).tips.toSeq == Seq(0L, 6L, 0L, 6L, 0L, 6L, 0L))
  }

  test("FD rethrows a failing task instead of returning unset tips") {
    val g = TestGraphs.random(200, 150, 3000, seed = 41)
    val cd = ReceiptLocal.coarseDecomposition(g, cfg(8))
    intercept[ArrayIndexOutOfBoundsException] {
      ReceiptLocal.fineDecomposition(g, cd.copy(supInit = cd.supInit.take(10)), cfg(8))
    }
  }

  test("FD throws on a tip outside its CD range instead of returning tips (lemmas 3, 4)") {
    val g = TestGraphs.random(200, 150, 3000, seed = 41)
    val cd = ReceiptLocal.coarseDecomposition(g, cfg(8))
    assert(ReceiptLocal.fineDecomposition(g, cd, cfg(8))._1.toSeq == BUP.run(g).tips.toSeq)
    // lower one non-empty subset's upper bound to its lower bound
    val i = cd.subsetOf(0)
    val e = intercept[IllegalStateException] {
      ReceiptLocal.fineDecomposition(g, cd.copy(hi = cd.hi.updated(i, cd.lo(i))), cfg(8))
    }
    assert(e.getMessage.contains(s"subset $i"), e.getMessage)
  }

  for (dgm <- Seq(false, true))
    test(s"the FD subset task on compact ids equals BUP.peel on the induced graph (DGM=$dgm)") {
      for (g <- Seq(TestGraphs.random(300, 200, 5000, seed = 7), hubGraph(3))) {
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
    val g = TestGraphs.random(60, 40, 500, seed = 43)
    val r = ReceiptLocal.run(g, cfg(1))
    assert(r.tips.toSeq == BUP.run(g).tips.toSeq)
    assert(r.cd.subsets <= 2)
  }

  test("U sides of 2^21 vertices and more decompose exactly") {
    val nU = (1 << 21) + 8
    // two K_{3,3} on the six highest U ids; every other U vertex is isolated
    val es = for (k <- 0 until 2; u <- 0 until 3; v <- 0 until 3) yield (nU - 6 + 3 * k + u, 3 * k + v)
    val g = TestGraphs.fromEdges(nU, 6, es)
    val runs = Seq[(String, () => Array[Long])](
      "BUP" -> (() => BUP.run(g).tips),
      "ParB" -> (() => ParB.run(g, threads = 4).tips),
      "RECEIPT" -> (() => ReceiptLocal.run(g, cfg(15)).tips))
    for ((name, run) <- runs) {
      val tips = run()
      assert(tips.length == nU, name)
      assert((0 until nU - 6).forall(tips(_) == 0L), name)
      assert((nU - 6 until nU).forall(tips(_) == 6L), name)
    }
  }
}
