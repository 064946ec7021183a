package repro.core

import repro.{BipartiteGen, SparkSpec}
import repro.bipartite.{BipartiteGraph, BUP, ParB, ReceiptLocal}

class SparkReceiptSpec extends SparkSpec {

  private def cfg(p: Int, huc: Boolean = true) = SparkReceipt.Config(P = p, enableHUC = huc)

  /** A hub graph: 80% of its edges land on 4 of its 80 V vertices. */
  private def hubGraph(seed: Long): BipartiteGraph = {
    val rnd = new java.util.Random(seed)
    val es = (0 until 2500).map { _ =>
      val v = if (rnd.nextDouble() < 0.8) rnd.nextInt(4) else 4 + rnd.nextInt(76)
      (rnd.nextInt(300), v)
    }
    BipartiteGraph.fromEdges(300, 80, es)
  }

  for (seed <- 0 until 4)
    test(s"Spark RECEIPT tips equal sequential BUP (seed=$seed)") {
      val (g, df) = BipartiteGen.randomWithDF(spark, 60 + 20 * seed, 40 + 10 * seed, 700, seed)
      val bup = BUP.run(g).tips
      val rec = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(4))
      assert(rec.tips.toSeq == bup.toSeq, s"seed=$seed")
    }

  test("Spark RECEIPT equals local RECEIPT and ParB on the same graph") {
    val (g, df) = BipartiteGen.randomWithDF(spark, 100, 70, 1000, seed = 11)
    val local = ReceiptLocal.run(g, ReceiptLocal.Config(P = 4, threads = 4)).tips
    val parb = ParB.run(g, threads = 4).tips
    val dist = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(4)).tips
    assert(dist.toSeq == local.toSeq)
    assert(dist.toSeq == parb.toSeq)
  }

  test("Spark RECEIPT on a skewed hub graph (HUC territory) equals BUP") {
    val g = hubGraph(3)
    val df = BipartiteGen.edgesDF(spark, g)
    val bup = BUP.run(g).tips
    val rec = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(4))
    assert(rec.tips.toSeq == bup.toSeq)
  }

  test("HUC on/off gives identical tips; HUC reduces wedge work on hub graphs") {
    val rnd = new java.util.Random(7)
    val es = (0 until 4000).map { _ =>
      val v = if (rnd.nextDouble() < 0.85) rnd.nextInt(3) else 3 + rnd.nextInt(117)
      (rnd.nextInt(500), v)
    }
    val g = BipartiteGraph.fromEdges(500, 120, es)
    val df = BipartiteGen.edgesDF(spark, g)
    val on = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(4, huc = true))
    val off = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(4, huc = false))
    assert(on.tips.toSeq == off.tips.toSeq)
    assert(on.metrics.hucTriggers > 0, "expected HUC rounds on hub graph")
    assert(on.metrics.totalWedges < off.metrics.totalWedges)
  }

  test("isolated and degree-0 vertices get tip 0") {
    // u=4..6 have no edges at all
    val g = BipartiteGraph.fromEdges(7, 3, Seq((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 2)))
    val df = BipartiteGen.edgesDF(spark, g)
    val rec = SparkReceipt.run(spark, df, 7, 3, cfg(2))
    assert(rec.tips(0) == 1L && rec.tips(1) == 1L)
    assert((2 until 7).forall(u => rec.tips(u) == 0L))
  }

  test("complete graph K_{3,3} decomposes to all 6s") {
    val g = BipartiteGraph.complete(3, 3)
    val rec = SparkReceipt.run(spark, BipartiteGen.edgesDF(spark, g), 3, 3, cfg(2))
    assert(rec.tips.toSeq == Seq(6L, 6L, 6L))
  }

  test("P invariance: P=1 and P=8 give identical tips") {
    val (g, df) = BipartiteGen.randomWithDF(spark, 80, 50, 700, seed = 21)
    val a = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(1)).tips
    val b = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(8)).tips
    assert(a.toSeq == b.toSeq)
  }

  test("V-side decomposition via transposition equals local BUP on transpose") {
    val (g, df) = BipartiteGen.randomWithDF(spark, 50, 40, 450, seed = 23)
    val bupT = BUP.run(g.transpose).tips
    val rec = SparkReceipt.run(spark, BipartiteDF.transposed(df), g.nV, g.nU, cfg(3))
    assert(rec.tips.toSeq == bupT.toSeq)
  }

  test("metrics: ρ is counted and far below ParB's on a non-trivial graph") {
    val (g, df) = BipartiteGen.randomWithDF(spark, 300, 200, 4000, seed = 31)
    val parb = ParB.run(g, threads = 4)
    val rec = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(5))
    assert(rec.tips.toSeq == parb.tips.toSeq)
    assert(rec.metrics.rounds > 0)
    assert(rec.metrics.rounds < parb.metrics.rounds / 2,
      s"ρ_spark=${rec.metrics.rounds} ρ_ParB=${parb.metrics.rounds}")
  }

  test("Spark ParB equals BUP when it finishes within budget") {
    val (g, df) = BipartiteGen.randomWithDF(spark, 24, 16, 130, seed = 41)
    val bup = BUP.run(g)
    val pb = SparkParB.run(spark, df, g.nU, g.nV, budgetMs = 600000)
    assert(pb.finished)
    assert(pb.tips.toSeq == bup.tips.toSeq)
    assert(pb.rounds == ParB.run(g, threads = 2).metrics.rounds,
      "dataflow ParB must pay exactly the shared-memory ParB's rounds")
  }

  test("Spark ParB respects its round budget and reports DNF") {
    val (g, df) = BipartiteGen.randomWithDF(spark, 120, 80, 1200, seed = 43)
    val pb = SparkParB.run(spark, df, g.nU, g.nV, budgetMs = 600000, maxRounds = 3)
    assert(!pb.finished)
    assert(pb.rounds == 3)
    assert(pb.tips.count(_ >= 0) < g.nU)
    val ref = ParB.run(g, threads = 2).tips
    assert((0 until g.nU).forall(u => pb.tips(u) < 0 || pb.tips(u) == ref(u)))
  }

  test("metrics: FD wedge work does not exceed CD peel work") {
    val (g, df) = BipartiteGen.randomWithDF(spark, 200, 150, 2500, seed = 37)
    val rec = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(6, huc = false))
    assert(rec.metrics.fdWedges <= rec.metrics.cdPeelWedges)
  }

  test("CD with HUC off: Spark and local engines agree on subsets, ranges and rounds") {
    for ((g, p) <- Seq((BipartiteGraph.random(300, 200, 4000, 31), 5), (hubGraph(3), 4))) {
      val localRun = ReceiptLocal.run(g, ReceiptLocal.Config(P = p, threads = 4, enableHUC = false))
      val distRun = SparkReceipt.run(spark, BipartiteGen.edgesDF(spark, g), g.nU, g.nV, cfg(p, huc = false))
      val (local, dist) = (localRun.cd, distRun.cd)
      assert(distRun.tips.toSeq == localRun.tips.toSeq)
      assert(distRun.metrics.fdWedges == localRun.metrics.fdWedges)
      assert(dist.subsetOf.toSeq == local.subsetOf.toSeq)
      assert(dist.lo.toSeq == local.lo.toSeq)
      assert(dist.hi.toSeq == local.hi.toSeq)
      assert(dist.rounds == local.rounds)
      assert(dist.subsets == local.subsets)
    }
  }

  test("a run leaves no RDD persisted, with more and with at most 8 CD rounds") {
    val sc = spark.sparkContext
    for ((g, p, manyRounds) <- Seq((BipartiteGraph.random(300, 200, 4000, 31), 5, true), (hubGraph(3), 4, false))) {
      val df = BipartiteGen.edgesDF(spark, g)
      val before = sc.getPersistentRDDs.keySet
      val rec = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(p))
      assert((rec.metrics.rounds > SparkPeel.CheckpointEvery) == manyRounds, s"rounds=${rec.metrics.rounds}")
      val left = sc.getPersistentRDDs.keySet -- before
      assert(left.isEmpty, s"still persisted after the run: $left")
      assert(sc.getPersistentRDDs.size == before.size)
    }
  }
}
