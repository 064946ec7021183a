package repro.bipartite

import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable.ArrayBuffer

/** The alg. 3 driver and the threaded batch peel round as they were written
  * before the driver kept a live list: every range and every re-count scans
  * all of U, `findHi` sorts boxed `(support, w)` pairs, and each round
  * collects touched vertices in boxed per-thread buffers. Tests run it on
  * the same local substrate as [[ReceiptLocal.coarseDecomposition]] and
  * require equal subsets, ranges, rounds and wedges.
  */
object FullScanCD {
  import ReceiptLocal.{CDResult, CDRounds, Config}

  /** Local CD as the engine builds it, on the full-scan driver and round. */
  def coarseDecomposition(g: BipartiteGraph, cfg: Config): CDResult = {
    val pool = new WorkerPool(cfg.threads)
    try {
      val comb = new ButterflyCounting.Combined(g, cfg.threads)
      val counts = comb.count(pool)
      val st = new PeelState(g, cfg.enableDGM)
      st.setSupports(counts.cntU)
      val update = new BoxedBatchUpdate(st, pool)
      val rounds = new CDRounds {
        def peelCost(u: Int): Long = st.storedPeelCost(u)
        def peel(batch: Array[Int], capFloor: Long): (Long, Array[Int]) = update(batch, capFloor)
        def recount(removed: Array[Int]): (Array[Long], Long) = {
          comb.retainU(st.alive)
          val rc = comb.count(pool)
          (rc.cntU, rc.wedges)
        }
      }
      coarseDecomposition(st, cfg.P, cfg.enableHUC, counts.wedges, rounds)
    } finally pool.close()
  }

  def coarseDecomposition(st: PeelState, P: Int, enableHUC: Boolean,
                          cntInitWedges: Long, sub: CDRounds): CDResult = {
    val nU = st.g.nU
    val w = st.g.wedgeEndpointCountU
    val subsetOf = Array.fill(nU)(-1)
    val supInit = new Array[Long](nU)
    val loBuf, hiBuf, swBuf = ArrayBuffer[Long]()
    var hucWedges, peelWedges, rounds = 0L
    var hucTriggers = 0
    var cRcntCache = recountCost(st)
    var lo = 0L
    var i = 0
    var scale = 1.0
    var remainingWedges = w.sum

    while (st.aliveCount > 0) {
      var tgt = 0L
      val hi =
        if (i >= P) Long.MaxValue
        else {
          tgt = math.max(1L, (scale * remainingWedges / (P - i)).toLong)
          findHi(st, w, tgt)
        }
      for (u <- 0 until nU if st.alive(u)) supInit(u) = st.sup.get(u)

      var subsetW = 0L
      var active = scanActive(st, hi)
      while (active.nonEmpty) {
        var cPeel = 0L
        if (enableHUC) active.foreach(u0 => cPeel += sub.peelCost(u0))
        active.foreach { u0 => subsetOf(u0) = i; subsetW += w(u0); st.markPeeled(u0) }
        rounds += 1
        if (enableHUC && cPeel > cRcntCache) {
          hucTriggers += 1
          val (cnt, wedges) = sub.recount(active)
          for (u <- 0 until nU if st.alive(u)) st.sup.set(u, cnt(u))
          hucWedges += wedges
          cRcntCache = recountCost(st)
          active = scanActive(st, hi)
        } else {
          val (wedges, touched) = sub.peel(active, lo)
          peelWedges += wedges
          st.chargeWedges(wedges)
          active = touched.filter(st.sup.get(_) < hi)
        }
      }
      loBuf += lo; hiBuf += hi; swBuf += subsetW
      if (i < P && subsetW > 0) scale = math.min(1.0, tgt.toDouble / subsetW.toDouble)
      remainingWedges -= subsetW
      lo = hi
      i += 1
    }
    CDResult(subsetOf, supInit, loBuf.toArray, hiBuf.toArray, swBuf.toArray,
      cntInitWedges = cntInitWedges, hucWedges = hucWedges, peelWedges = peelWedges,
      rounds = rounds, hucTriggers = hucTriggers, cntTimeMs = 0.0, peelTimeMs = 0.0, hucTimeMs = 0.0)
  }

  private def scanActive(st: PeelState, hi: Long): Array[Int] =
    (0 until st.g.nU).filter(u => st.alive(u) && st.sup.get(u) < hi).toArray

  private def recountCost(st: PeelState): Long = {
    var s = 0L
    for (u <- 0 until st.g.nU if st.alive(u)) {
      val du = st.g.degU(u)
      st.g.foreachNbrU(u)(v => s += math.min(du, st.curDegV(v)))
    }
    s
  }

  /** Sorts the live `(support, w)` pairs by support and returns `θ + 1` for
    * the first support at which the running sum of `w` reaches `tgt`, or
    * for the maximum support.
    */
  private def findHi(st: PeelState, w: Array[Long], tgt: Long): Long = {
    val sorted = (0 until st.g.nU).filter(st.alive).map(u => (st.sup.get(u), w(u))).sortBy(_._1)
    val prefix = sorted.scanLeft(0L)(_ + _._2).tail
    sorted.indices.find(prefix(_) >= tgt).fold(sorted.last._1)(sorted(_)._1) + 1
  }
}

/** The threaded batch peel round with boxed per-thread touched lists,
  * merged by one shared flag array.
  */
final class BoxedBatchUpdate(st: PeelState, pool: WorkerPool) {
  private val threads = pool.threads
  private val scratchW = Array.fill(threads)(new Array[Int](st.g.nU))
  private val scratchT = Array.fill(threads)(new Array[Int](st.g.nU))
  private val touchedFlag = new Array[Boolean](st.g.nU)

  def apply(batch: Array[Int], capFloor: Long): (Long, Array[Int]) = {
    val n = batch.length
    val wedges = new AtomicLong(0L)
    val perThreadTouched = Array.fill(threads)(new ArrayBuffer[Int]())
    val chunk = math.max(1, (n + threads - 1) / threads)
    pool.run((n + chunk - 1) / chunk) { t =>
      var w = 0L
      for (k <- t * chunk until math.min(n, (t + 1) * chunk))
        w += st.update(batch(k), capFloor, scratchW(t), scratchT(t), (u2, _) => perThreadTouched(t) += u2)
      wedges.addAndGet(w)
    }
    val touched = new ArrayBuffer[Int]()
    perThreadTouched.foreach(_.foreach { u2 =>
      if (!touchedFlag(u2) && st.alive(u2)) { touchedFlag(u2) = true; touched += u2 }
    })
    touched.foreach(touchedFlag(_) = false)
    (wedges.get(), touched.toArray)
  }
}
