package repro.bipartite

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.TestGraphs.GraphOps

class BipartiteGraphSpec extends AnyFunSuite {

  test("fromEdges builds CSR with correct degrees") {
    val g = TestGraphs.fromEdges(3, 2, Seq((0, 0), (0, 1), (1, 0), (2, 1)))
    assert(g.m == 4)
    assert((0 until 3).map(g.degU) == Seq(2, 1, 1))
    assert((0 until 2).map(g.degV) == Seq(2, 2))
  }

  test("fromEdges deduplicates") {
    val g = TestGraphs.fromEdges(2, 2, Seq((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
    assert(g.m == 2)
    assert(g.degU(0) == 1 && g.degU(1) == 1)
  }

  test("adjacency is symmetric between the two CSR views") {
    val g = TestGraphs.random(50, 40, 300, seed = 7)
    var pairsU = Set.empty[(Int, Int)]
    for (u <- 0 until g.nU) g.foreachNbrU(u)(v => pairsU += ((u, v)))
    var pairsV = Set.empty[(Int, Int)]
    for (v <- 0 until g.nV) g.foreachNbrV(v)(u => pairsV += ((u, v)))
    assert(pairsU == pairsV)
    assert(pairsU.size == g.m)
  }

  test("edge out of range is rejected") {
    intercept[IllegalArgumentException] {
      TestGraphs.fromEdges(2, 2, Seq((0, 2)))
    }
    intercept[IllegalArgumentException] {
      TestGraphs.fromEdges(2, 2, Seq((2, 0)))
    }
  }

  test("complete K_{a,b} has a*b edges and expected wedge counts") {
    val g = TestGraphs.complete(3, 4)
    assert(g.m == 12)
    // wedges with endpoints in U: Σ_v C(d_v,2) = 4 * C(3,2) = 12
    assert(g.wedgesEndpointsU == 12)
    // wedges with endpoints in V: 3 * C(4,2) = 18
    assert(g.wedgesEndpointsV == 18)
  }

  test("wedgeEndpointCountU matches Σ_{v∈N_u}(d_v - 1)") {
    val g = TestGraphs.random(30, 20, 150, seed = 3)
    val w = g.wedgeEndpointCountU
    for (u <- 0 until g.nU) {
      var s = 0L
      g.foreachNbrU(u)(v => s += g.degV(v) - 1)
      assert(w(u) == s)
    }
    // total wedges double-counts each wedge once per endpoint
    assert(w.sum == 2 * g.wedgesEndpointsU)
  }

  test("peelCostU matches Σ_{v∈N_u} d_v") {
    val g = TestGraphs.random(30, 20, 150, seed = 4)
    val pc = g.peelCostU
    for (u <- 0 until g.nU) {
      var s = 0L
      g.foreachNbrU(u)(v => s += g.degV(v))
      assert(pc(u) == s)
    }
  }

  test("countCost is symmetric under transpose") {
    val g = TestGraphs.random(40, 25, 200, seed = 5)
    assert(g.countCost == g.transpose.countCost)
  }

  test("transpose swaps sides") {
    val g = TestGraphs.random(30, 20, 100, seed = 6)
    val t = g.transpose
    assert(t.nU == g.nV && t.nV == g.nU && t.m == g.m)
    assert(t.wedgesEndpointsU == g.wedgesEndpointsV)
    for (v <- 0 until g.nV) assert(t.degU(v) == g.degV(v))
  }

  test("filterU keeps only live vertices' edges, preserving ids") {
    val g = TestGraphs.random(20, 15, 80, seed = 8)
    val alive = Array.tabulate(20)(_ % 2 == 0)
    val f = g.filterU(alive)
    assert(f.nU == g.nU && f.nV == g.nV)
    for (u <- 0 until 20) {
      if (alive(u)) assert(f.degU(u) == g.degU(u))
      else assert(f.degU(u) == 0)
    }
    assert(f.m == (0 until 20).filter(alive).map(g.degU).sum)
  }

  test("packedEdges round-trips") {
    val g = TestGraphs.random(25, 25, 120, seed = 9)
    val g2 = BipartiteGraph.fromPacked(25, 25, g.packedEdges, dedup = true)
    assert(g2.m == g.m)
    for (u <- 0 until 25) assert(g2.degU(u) == g.degU(u))
  }

  test("empty and singleton graphs") {
    val e = TestGraphs.fromEdges(3, 3, Seq.empty)
    assert(e.m == 0 && e.wedgesEndpointsU == 0)
    val s = TestGraphs.fromEdges(1, 1, Seq((0, 0)))
    assert(s.m == 1 && s.wedgesEndpointsU == 0 && s.wedgesEndpointsV == 0)
  }
}
