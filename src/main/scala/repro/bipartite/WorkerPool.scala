package repro.bipartite

import java.util.concurrent.{Callable, Executors}
import java.util.concurrent.atomic.AtomicReference
import scala.jdk.CollectionConverters._

/** The local kernels' thread pool: `threads` workers that run batches of
  * indexed tasks, started in index order (FIFO). [[run]] returns once every
  * task has finished, which orders the tasks' writes before the caller's
  * reads, and rethrows the first task failure; tasks not yet started by
  * then are skipped.
  */
final class WorkerPool(val threads: Int) extends AutoCloseable {
  private val pool = Executors.newFixedThreadPool(math.max(1, threads))

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
  /** One batch on `min(threads, n)` workers, shut down however it ends. */
  def run(threads: Int, n: Int)(task: Int => Unit): Unit = {
    val pool = new WorkerPool(math.min(threads, n))
    try pool.run(n)(task) finally pool.close()
  }
}
