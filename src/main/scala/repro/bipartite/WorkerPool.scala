package repro.bipartite

import java.util.concurrent.{Callable, Executors}
import java.util.concurrent.atomic.AtomicReference
import scala.jdk.CollectionConverters._

/** The local kernels' thread pool: `threads` workers that run batches of
  * indexed tasks, started in index order (FIFO). [[run]] returns once every
  * task has finished, which orders the tasks' writes before the caller's
  * reads, and rethrows the first task failure; tasks not yet started by
  * then are skipped. `threads < 1` is rejected here, once for every kernel.
  */
final class WorkerPool(val threads: Int) extends AutoCloseable {
  require(threads >= 1, s"a worker pool needs threads >= 1, got $threads")
  private val pool = Executors.newFixedThreadPool(threads)

  def run(n: Int)(task: Int => Unit): Unit = {
    val failure = new AtomicReference[Throwable]()
    pool.invokeAll((0 until n).map { i =>
      new Callable[Unit] {
        def call(): Unit = if (failure.get == null)
          try task(i) catch { case t: Throwable => failure.compareAndSet(null, t); () }
      }
    }.asJava)
    if (failure.get != null) throw failure.get
  }

  def close(): Unit = pool.shutdown()
}

object WorkerPool {
  /** One batch on `min(threads, max(n, 1))` workers, shut down however it
    * ends; an empty batch runs nothing.
    */
  def run(threads: Int, n: Int)(task: Int => Unit): Unit = {
    val pool = new WorkerPool(math.min(threads, math.max(n, 1)))
    try pool.run(n)(task) finally pool.close()
  }
}
