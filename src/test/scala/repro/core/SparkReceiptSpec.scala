package repro.core

import repro.{BipartiteGen, SparkSpec, TestGraphs}
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
    TestGraphs.fromEdges(300, 80, es)
  }

  for (seed <- 0 until 4)
    test(s"Spark RECEIPT tips equal sequential BUP (seed=$seed)") {
      val (g, df) = TestGraphs.randomWithDF(spark, 60 + 20 * seed, 40 + 10 * seed, 700, seed)
      val bup = BUP.run(g).tips
      val rec = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(4))
      assert(rec.tips.toSeq == bup.toSeq, s"seed=$seed")
    }

  test("Spark RECEIPT equals local RECEIPT and ParB on the same graph") {
    val (g, df) = TestGraphs.randomWithDF(spark, 100, 70, 1000, seed = 11)
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
    val g = TestGraphs.fromEdges(500, 120, es)
    val df = BipartiteGen.edgesDF(spark, g)
    val on = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(4, huc = true))
    val off = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(4, huc = false))
    assert(on.tips.toSeq == off.tips.toSeq)
    assert(on.metrics.hucTriggers > 0, "expected HUC rounds on hub graph")
    assert(on.metrics.totalWedges < off.metrics.totalWedges)
    assert(on.metrics.hucTimeMs > 0 && on.metrics.hucTimeMs <= on.metrics.cdTimeMs)
    assert(off.metrics.hucTimeMs == 0.0)
  }

  test("isolated and degree-0 vertices get tip 0") {
    // u=4..6 have no edges at all
    val g = TestGraphs.fromEdges(7, 3, Seq((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 2)))
    val df = BipartiteGen.edgesDF(spark, g)
    val rec = SparkReceipt.run(spark, df, 7, 3, cfg(2))
    assert(rec.tips(0) == 1L && rec.tips(1) == 1L)
    assert((2 until 7).forall(u => rec.tips(u) == 0L))
  }

  test("complete graph K_{3,3} decomposes to all 6s") {
    val g = TestGraphs.complete(3, 3)
    val rec = SparkReceipt.run(spark, BipartiteGen.edgesDF(spark, g), 3, 3, cfg(2))
    assert(rec.tips.toSeq == Seq(6L, 6L, 6L))
  }

  test("P invariance: P=1 and P=8 give identical tips") {
    val (g, df) = TestGraphs.randomWithDF(spark, 80, 50, 700, seed = 21)
    val a = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(1)).tips
    val b = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(8)).tips
    assert(a.toSeq == b.toSeq)
  }

  test("V-side decomposition via transposition equals local BUP on transpose") {
    val (g, df) = TestGraphs.randomWithDF(spark, 50, 40, 450, seed = 23)
    val bupT = BUP.run(g.transpose).tips
    val rec = SparkReceipt.run(spark, BipartiteDF.transposed(df), g.nV, g.nU, cfg(3))
    assert(rec.tips.toSeq == bupT.toSeq)
  }

  test("metrics: ρ is counted and far below ParB's on a non-trivial graph") {
    val (g, df) = TestGraphs.randomWithDF(spark, 300, 200, 4000, seed = 31)
    val parb = ParB.run(g, threads = 4)
    val rec = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(5))
    assert(rec.tips.toSeq == parb.tips.toSeq)
    assert(rec.metrics.rounds > 0)
    assert(rec.metrics.rounds < parb.metrics.rounds / 2,
      s"ρ_spark=${rec.metrics.rounds} ρ_ParB=${parb.metrics.rounds}")
  }

  test("Spark ParB equals BUP when it finishes within budget") {
    val (g, df) = TestGraphs.randomWithDF(spark, 24, 16, 130, seed = 41)
    val bup = BUP.run(g)
    val pb = SparkParB.run(spark, df, g.nU, g.nV, budgetMs = 600000)
    assert(pb.finished)
    assert(pb.tips.toSeq == bup.tips.toSeq)
    assert(pb.rounds == ParB.run(g, threads = 2).metrics.rounds,
      "dataflow ParB must pay exactly the shared-memory ParB's rounds")
  }

  test("Spark ParB respects its round budget and reports DNF") {
    val (g, df) = TestGraphs.randomWithDF(spark, 120, 80, 1200, seed = 43)
    val pb = SparkParB.run(spark, df, g.nU, g.nV, budgetMs = 600000, maxRounds = 3)
    assert(!pb.finished)
    assert(pb.rounds == 3)
    assert(pb.tips.count(_ >= 0) < g.nU)
    val ref = ParB.run(g, threads = 2).tips
    assert((0 until g.nU).forall(u => pb.tips(u) < 0 || pb.tips(u) == ref(u)))
  }

  test("metrics: FD wedge work does not exceed CD peel work") {
    val (g, df) = TestGraphs.randomWithDF(spark, 200, 150, 2500, seed = 37)
    val rec = SparkReceipt.run(spark, df, g.nU, g.nV, cfg(6, huc = false))
    assert(rec.metrics.fdWedges <= rec.metrics.cdPeelWedges)
  }

  // With HUC on, the engines weigh different peel costs (local: stored
  // adjacency lengths; Spark: live degrees), so they may re-count in
  // different rounds; the partition does not depend on that choice, while
  // hucTriggers, hucWedges and peelWedges do and are not compared.
  for (huc <- Seq(false, true))
    test(s"CD with HUC ${if (huc) "on" else "off"}: Spark and local engines agree on subsets, ranges and rounds") {
      for ((g, p) <- Seq((TestGraphs.random(300, 200, 4000, 31), 5), (hubGraph(3), 4))) {
        val localRun = ReceiptLocal.run(g, ReceiptLocal.Config(P = p, threads = 4, enableHUC = huc))
        val distRun = SparkReceipt.run(spark, BipartiteGen.edgesDF(spark, g), g.nU, g.nV, cfg(p, huc = huc))
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

  test("a run leaves no RDD persisted, on a random and on a hub graph") {
    val sc = spark.sparkContext
    for ((g, p) <- Seq((TestGraphs.random(300, 200, 4000, 31), 5), (hubGraph(3), 4))) {
      val df = BipartiteGen.edgesDF(spark, g)
      val before = sc.getPersistentRDDs.keySet
      SparkReceipt.run(spark, df, g.nU, g.nV, cfg(p))
      val left = sc.getPersistentRDDs.keySet -- before
      assert(left.isEmpty, s"still persisted after the run: $left")
      assert(sc.getPersistentRDDs.size == before.size)
    }
  }

  test("a run never changes the caller's session conf, at any job start") {
    val (g, df) = TestGraphs.randomWithDF(spark, 60, 40, 500, seed = 5)
    val conf0 = (spark.conf.get("spark.sql.shuffle.partitions"), spark.conf.get("spark.sql.adaptive.enabled"))
    val ((rec, pb), confs) = JobLog(spark) {
      (SparkReceipt.run(spark, df, g.nU, g.nV, cfg(4)),
       SparkParB.run(spark, df, g.nU, g.nV, budgetMs = 600000, maxRounds = 3))
    }
    assert(rec.tips.toSeq == BUP.run(g).tips.toSeq && pb.rounds == 3)
    assert(confs.nonEmpty)
    assert(confs.forall(_ == conf0), s"caller's (shuffle partitions, AQE) seen: ${confs.distinct} vs $conf0")
  }

  test("two concurrent runs on one session give the tips of sequential runs") {
    import scala.concurrent.{Await, Future}
    import scala.concurrent.ExecutionContext.Implicits.global
    import scala.concurrent.duration._
    val a = TestGraphs.randomWithDF(spark, 100, 70, 1000, seed = 11)
    val hub = hubGraph(3)
    val inputs = Seq(a, a, (hub, BipartiteGen.edgesDF(spark, hub)))
    def run(in: (BipartiteGraph, org.apache.spark.sql.DataFrame)): Seq[Long] =
      SparkReceipt.run(spark, in._2, in._1.nU, in._1.nV, cfg(4)).tips.toSeq
    val sequential = inputs.map(run)
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val shuffle0 = spark.conf.get("spark.sql.shuffle.partitions")
    for (pair <- Seq(Seq(0, 1), Seq(1, 2))) { // the same input twice, then two inputs
      val concurrent = Await.result(Future.traverse(pair)(i => Future(run(inputs(i)))), 10.minutes)
      assert(concurrent == pair.map(sequential))
    }
    assert(spark.conf.get("spark.sql.shuffle.partitions") == shuffle0)
    assert(sc.getPersistentRDDs.keySet == before)
  }
}
