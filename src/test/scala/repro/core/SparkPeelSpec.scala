package repro.core

import repro.{BipartiteGen, SparkSpec, TestGraphs}
import repro.TestGraphs.GraphOps
import repro.bipartite.PeelState

class SparkPeelSpec extends SparkSpec {

  test("LiveEdges over 20 random drops and two re-bases: exactly the live edges, one generation held, jobs only where due") {
    val g = TestGraphs.random(120, 60, 900, 3)
    val edges = g.packedEdges.map(e => ((e >>> 32).toInt, e.toInt)).toSeq
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val rnd = new java.util.Random(5)
    SparkPeel.withLiveEdges(spark, BipartiteGen.edgesDF(spark, g)) { live =>
      val st = new PeelState(BipartiteDF.toLocal(live.edges0, g.nU, g.nV), enableDGM = false)
      val gone = scala.collection.mutable.Set[Int]()
      for (i <- 1 to 20) {
        val alive = (0 until g.nU).filterNot(gone).toArray
        val batch = (alive.filter(_ => rnd.nextInt(30) == 0) :+ alive(rnd.nextInt(alive.length))).distinct
        val liveBefore = edges.filterNot(e => gone(e._1))
        val degV = liveBefore.groupBy(_._2).map { case (v, es) => v -> es.size }
        batch.foreach(st.markPeeled)
        val peel = i % 2 == 0 // even drops go through a peel round, odd ones drop alone
        val (wedges, jobs) = JobLog(spark) {
          if (peel) SparkPeel.peelRound(st, live, batch, 0L)._1 else { live.drop(batch); 0L }
        }
        val rebased = i % (SparkPeel.CheckpointEvery + 1) == 0
        assert(jobs.size == (if (peel) 1 else 0) + (if (rebased) 1 else 0), s"drop $i: ${jobs.size} jobs")
        if (peel) // the round saw exactly the live edges: Σ over the batch's edges of (d_v − 1)
          assert(wedges == liveBefore.filter(e => batch.contains(e._1)).map(e => degV(e._2) - 1L).sum, s"drop $i")
        gone ++= batch
        val got = live.cur.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).sorted.toSeq
        assert(got == edges.filterNot(e => gone(e._1)).sorted, s"drop $i")
        val held = sc.getPersistentRDDs.keySet -- before
        assert(held.size <= 1, s"drop $i holds generations $held")
      }
      assert(gone.size < g.nU)
    }
    assert(sc.getPersistentRDDs.keySet == before)
  }
}
