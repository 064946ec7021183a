package repro.core

import org.apache.spark.sql.functions._
import repro.{BipartiteGen, SparkSpec, TestGraphs}
import repro.TestGraphs.GraphOps

class BipartiteDFSpec extends SparkSpec {

  test("canonical deduplicates and casts") {
    import spark.implicits._
    val df = Seq((1, 2), (1, 2), (3, 4)).toDF("u", "v")
    val c = BipartiteDF.canonical(df)
    assert(c.count() == 2)
    assert(c.schema("u").dataType.typeName == "long")
  }

  test("degrees match the local graph") {
    val (g, df) = TestGraphs.randomWithDF(spark, 40, 30, 250, seed = 1)
    val du = BipartiteDF.degreesU(df).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val dv = BipartiteDF.degreesV(df).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    for (u <- 0 until g.nU if g.degU(u) > 0) assert(du(u.toLong) == g.degU(u))
    for (v <- 0 until g.nV if g.degV(v) > 0) assert(dv(v.toLong) == g.degV(v))
  }

  /** Σ_v C(d_v, 2) over the edge set: wedges with both endpoints in U. */
  private def wedgesEndpointsU(edges: org.apache.spark.sql.DataFrame): Long =
    BipartiteDF.degreesV(edges).agg(sum(BipartiteDF.choose2(col("dv")))).collect()(0).getLong(0)

  test("wedgesEndpointsU matches Σ_v C(d_v,2)") {
    val (g, df) = TestGraphs.randomWithDF(spark, 50, 35, 400, seed = 2)
    assert(wedgesEndpointsU(df) == g.wedgesEndpointsU)
  }

  test("toLocal round-trips the edge set") {
    val (g, df) = TestGraphs.randomWithDF(spark, 30, 20, 200, seed = 3)
    for (edges <- Seq(df, df.union(df))) { // duplicates are dropped
      val back = BipartiteDF.toLocal(edges, g.nU, g.nV)
      assert(back.m == g.m)
      for (u <- 0 until g.nU) assert(back.degU(u) == g.degU(u))
    }
  }

  test("toLocal rejects edge ids outside [0, nU) x [0, nV)") {
    import spark.implicits._
    for ((u, v) <- Seq(((1L << 32) + 1, 0L), (5L, 0L), (0L, 3L), (-1L, 0L))) {
      val df = Seq((0L, 0L), (u, v)).toDF("u", "v")
      val e = intercept[IllegalArgumentException](BipartiteDF.toLocal(df, 5, 3))
      assert(e.getMessage.contains(s"edge ($u,$v) out of range (5,3)"))
    }
  }

  test("transposed swaps columns") {
    val (g, df) = TestGraphs.randomWithDF(spark, 20, 15, 100, seed = 4)
    val t = BipartiteDF.transposed(df)
    assert(wedgesEndpointsU(t) == g.wedgesEndpointsV)
  }

  test("generator: dataset configs produce graphs of the advertised shape") {
    for (cfg <- BipartiteGen.datasets) {
      val g = BipartiteGen.generate(cfg)
      assert(g.nU == cfg.nU && g.nV == cfg.nV)
      assert(g.m > cfg.targetM / 2, s"${cfg.name}: dedup removed too much (${g.m})")
      assert(g.m <= cfg.targetM)
    }
  }

  test("generator is deterministic in the seed") {
    val cfg = BipartiteGen.datasets.head
    val a = BipartiteGen.generate(cfg)
    val b = BipartiteGen.generate(cfg)
    assert(a.packedEdges.toSeq == b.packedEdges.toSeq)
  }

  test("U is the high-wedge side for every dataset (paper labelling)") {
    for (cfg <- BipartiteGen.datasets) {
      val g = BipartiteGen.generate(cfg)
      assert(g.wedgesEndpointsU > g.wedgesEndpointsV,
        s"${cfg.name}: ΛU=${g.wedgesEndpointsU} ΛV=${g.wedgesEndpointsV}")
    }
  }
}
