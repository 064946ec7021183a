package repro.core

import repro.{BipartiteGen, SparkSpec, TestGraphs}
import repro.TestGraphs.GraphOps
import repro.bipartite.PeelState

class SparkPeelSpec extends SparkSpec {

  test("live edges over 20 peel rounds: exact, one job each, only edges0 held") {
    val g = TestGraphs.random(120, 60, 900, 3)
    val edges = g.packedEdges.map(e => ((e >>> 32).toInt, e.toInt)).toSeq
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val rnd = new java.util.Random(5)
    SparkPeel.withEdges(spark, BipartiteGen.edgesDF(spark, g)) { edges0 =>
      val st = new PeelState(BipartiteDF.toLocal(edges0, g.nU, g.nV), enableDGM = false)
      val gone = scala.collection.mutable.Set[Int]()
      for (i <- 1 to 20) {
        val alive = (0 until g.nU).filterNot(gone).toArray
        val batch = (alive.filter(_ => rnd.nextInt(30) == 0) :+ alive(rnd.nextInt(alive.length))).distinct
        val liveBefore = edges.filterNot(e => gone(e._1))
        val degV = liveBefore.groupBy(_._2).map { case (v, es) => v -> es.size }
        batch.foreach(st.markPeeled)
        val (wedges, jobs) = JobLog(spark)(SparkPeel.peelRound(st, edges0, batch, 0L)._1)
        assert(jobs.size == 1, s"round $i: ${jobs.size} jobs")
        // the round saw exactly the edges live before it: Σ over the batch's edges of (d_v − 1)
        assert(wedges == liveBefore.filter(e => batch.contains(e._1)).map(e => degV(e._2) - 1L).sum, s"round $i")
        gone ++= batch
        val got = SparkPeel.live(st, edges0).collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).sorted.toSeq
        assert(got == edges.filterNot(e => gone(e._1)).sorted, s"round $i")
        val held = sc.getPersistentRDDs.keySet -- before
        assert(held.size <= 1, s"round $i holds $held")
      }
      assert(gone.size < g.nU)
    }
    assert(sc.getPersistentRDDs.keySet == before)
  }
}
