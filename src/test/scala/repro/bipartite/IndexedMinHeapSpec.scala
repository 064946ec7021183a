package repro.bipartite

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite

import scala.collection.mutable

class IndexedMinHeapSpec extends AnyFunSuite {

  // Small keys force ties (broken by id); large ones span 2^42 and up.
  private val key: Gen[Long] = Gen.frequency(
    3 -> Gen.choose(0L, 4L),
    1 -> Gen.choose(0L, 1000000L),
    2 -> Gen.choose(1L << 42, Long.MaxValue / 2))

  /** (op, pick, key): op 0 pushes an absent id with `key`, 1 lowers a present
    * id's key to `min(current, key)`, 2 pops; `pick` chooses the id.
    */
  private val ops: Gen[(Int, List[(Int, Int, Long)])] = for {
    n <- Gen.choose(1, 40)
    xs <- Gen.listOf(Gen.zip(Gen.choose(0, 2), Gen.choose(0, Int.MaxValue), key))
  } yield (n, xs)

  test("push, decrease and pop follow a sorted (key, id) reference") {
    val prop = Prop.forAll(ops) { case (n, xs) =>
      val heap = new IndexedMinHeap(n)
      val ref = mutable.TreeSet.empty[(Long, Int)]
      val keyOf = mutable.HashMap.empty[Int, Long]
      def popBoth(): Boolean = {
        val (k, id) = ref.head
        ref -= ref.head; keyOf -= id
        heap.topKey == k && heap.pop() == id
      }
      val steps = xs.forall { case (op, pick, k) =>
        val present = keyOf.keys.toIndexedSeq.sorted
        val absent = (0 until n).filterNot(keyOf.contains)
        op match {
          case 0 if absent.nonEmpty =>
            val id = absent(pick % absent.size)
            heap.push(id, k); ref += ((k, id)); keyOf(id) = k
          case 1 if present.nonEmpty =>
            val id = present(pick % present.size)
            val nk = math.min(keyOf(id), k)
            heap.decrease(id, nk); ref -= ((keyOf(id), id)); ref += ((nk, id)); keyOf(id) = nk
          case _ =>
        }
        heap.isEmpty == ref.isEmpty && (op != 2 || ref.isEmpty || popBoth())
      }
      var ok = steps
      while (ok && ref.nonEmpty) ok = popBoth()
      ok && heap.isEmpty
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res.status)
  }
}
