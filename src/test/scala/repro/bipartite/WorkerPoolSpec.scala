package repro.bipartite

import java.util.concurrent.ConcurrentHashMap
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import scala.jdk.CollectionConverters._

class WorkerPoolSpec extends AnyFunSuite {

  test("every task runs once and its writes are visible after run") {
    val out = new Array[Int](100)
    WorkerPool.run(threads = 4, n = 100)(i => out(i) += i + 1)
    assert(out.toSeq == (1 to 100))
  }

  test("one worker runs the tasks in index order") {
    val seen = scala.collection.mutable.ArrayBuffer[Int]()
    WorkerPool.run(threads = 1, n = 20)(i => seen += i)
    assert(seen.toSeq == (0 until 20))
  }

  test("a failing task's exception reaches the caller and no worker outlives the call") {
    val workers = ConcurrentHashMap.newKeySet[Thread]()
    val boom = new IllegalStateException("boom")
    val e = intercept[IllegalStateException] {
      WorkerPool.run(threads = 4, n = 50) { i =>
        workers.add(Thread.currentThread())
        if (i == 7) throw boom
      }
    }
    assert(e eq boom)
    workers.asScala.foreach(_.join(10000))
    assert(workers.asScala.forall(!_.isAlive))
  }

  test("a kept pool still runs batches after a task failed") {
    val pool = new WorkerPool(3)
    try {
      intercept[ArithmeticException](pool.run(10)(i => 1 / (i - 4)))
      val out = new Array[Int](10)
      pool.run(10)(i => out(i) = i)
      assert(out.toSeq == (0 until 10))
    } finally pool.close()
  }

  test("threads < 1 is rejected up front, naming the value, on every kernel's path") {
    val g = TestGraphs.random(40, 30, 300, seed = 2)
    for (t <- Seq(0, -1)) {
      val calls = Seq[(String, () => Any)](
        "WorkerPool" -> (() => new WorkerPool(t)),
        "WorkerPool.run" -> (() => WorkerPool.run(t, 5)(_ => ())),
        "ReceiptLocal.run" -> (() => ReceiptLocal.run(g, ReceiptLocal.Config(threads = t))),
        "ParB.run" -> (() => ParB.run(g, t)),
        "vertexPriority" -> (() => ButterflyCounting.vertexPriority(g, t)))
      for ((name, call) <- calls) {
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"got $t"), s"$name: ${e.getMessage}")
      }
    }
  }

  test("an empty batch runs nothing, whatever the thread count") {
    for (t <- Seq(1, 4)) WorkerPool.run(t, 0)(_ => fail("no task expected"))
    val pool = new WorkerPool(2)
    try pool.run(0)(_ => fail("no task expected")) finally pool.close()
    // FD on a graph without U vertices has no tasks
    val r = ReceiptLocal.run(TestGraphs.fromEdges(0, 3, Nil), ReceiptLocal.Config(threads = 4))
    assert(r.tips.isEmpty && r.cd.subsets == 0)
  }
}
