package repro.tipbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{Callable, Executors}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.BipartiteGen
import repro.bipartite.{BipartiteGraph, BUP, ButterflyCounting, ReceiptLocal}
import repro.core.SparkReceipt

/** Closed-loop tip-decomposition benchmark, one client.
  *
  * A run generates the workload's inputs from the seed, sets up (graphs,
  * Spark session, warm-up jobs), computes a sequential [[BUP]] reference
  * per graph, then submits one decomposition job after another for the
  * given number of seconds, checking every job's tips and exact work
  * counts. It prints one `TIPBENCH {json}` line of raw measurements, which
  * `tipbench/run.py` reduces to metrics.
  *
  * With `--trace 1` every second job is traced: spans are taken around the
  * calls into each layer (counting, CD, FD; or `SparkReceipt.run` and its
  * Spark jobs via a listener) from outside the program, and FD's subset
  * tasks are replayed one at a time to time each task.
  */
object TipBench {

  val P = 15
  val GenReps = 3
  /** `graph.r` floor for the high-r workloads (the issue's "r ≫ 100"). */
  val MinHighR = 300.0
  /** `graph.r` ceiling for the low-r regime. */
  val MaxLowR = 5.0

  /** One side of a `BipartiteGen.datasets` entry, scaled by `scale`. */
  final case class GraphSpec(dataset: String, side: String, scale: Double)

  /** @param graphs  graphs decomposed in sequence as one job
    * @param inputs  independent inputs (each with its own derived seed);
    *                jobs cycle through them so one unlucky draw of the
    *                generator does not decide the run's figures
    * @param warmup  untimed jobs before the timed loop, enough for the JIT
    *                (and Spark's code generation) to settle on this workload
    * @param highR   true: every graph must have r ≥ MinHighR; false: r < MaxLowR
    */
  final case class Workload(graphs: Seq[GraphSpec], inputs: Int, warmup: Int, spark: Boolean, highR: Boolean)

  // Why each workload exists is recorded in BENCHMARK.json and tipbench/README.md.
  val workloads: Map[String, Workload] = Map(
    "hub_fd"   -> Workload(Seq(GraphSpec("Tr", "U", 0.5)), inputs = 4, warmup = 2, spark = false, highR = true),
    "huc_cd"   -> Workload(Seq(GraphSpec("En", "U", 0.5)), inputs = 4, warmup = 4, spark = false, highR = true),
    "flat_v"   -> Workload(BipartiteGen.datasets.map(c => GraphSpec(c.name, "V", 1.0)), inputs = 1,
                           warmup = 5, spark = false, highR = false),
    "dataflow" -> Workload(Seq(GraphSpec("It", "V", 0.01)), inputs = 2, warmup = 2, spark = true, highR = false)
  )

  final case class Graph(name: String, g: BipartiteGraph) {
    val r: Double = g.peelCostU.sum.toDouble / math.max(1L, g.countCost)
  }

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, spans: String)

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    Opts(m("workload"), m("seed").toLong, m("seconds").toDouble, m.getOrElse("trace", "0") == "1",
      m.getOrElse("spans", "spans.jsonl"))
  }

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def generate(wl: Workload, seed: Long): IndexedSeq[IndexedSeq[Graph]] =
    (0 until wl.inputs).map { i =>
      wl.graphs.zipWithIndex.map { case (s, k) =>
        val c = BipartiteGen.byName(s.dataset)
        val cfg = c.copy(nU = math.round(c.nU * s.scale).toInt, nV = math.round(c.nV * s.scale).toInt,
          targetM = math.round(c.targetM * s.scale).toInt, seed = seed * 1000L + i * 16 + k)
        val g0 = BipartiteGen.generate(cfg)
        Graph(s.dataset + s.side, if (s.side == "U") g0 else g0.transpose)
      }.toIndexedSeq
    }

  private def sparkCounts(m: SparkReceipt.Metrics): Seq[Long] =
    Seq(m.rounds, m.hucTriggers.toLong, m.cntInitWedges, m.hucWedges, m.cdPeelWedges, m.fdWedges)

  /** Output of one job: tips and the exact work counts per graph. */
  final case class JobOut(tips: Seq[Array[Long]], counts: Seq[Long], layers: Map[String, Double])

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val startupS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val wl = workloads.getOrElse(opts.workload, sys.error(s"unknown workload ${opts.workload}"))
    val threads = Runtime.getRuntime.availableProcessors()
    val cfg = ReceiptLocal.Config(P = P, threads = threads)
    val tmx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    require(tmx.isThreadAllocatedMemorySupported && tmx.isThreadAllocatedMemoryEnabled,
      "JVM does not report allocated bytes")
    val tracer = new Tracer

    // ---- set-up: inputs (generated GenReps times, median reported) ----
    var inputs: IndexedSeq[IndexedSeq[Graph]] = null
    val genS = (1 to GenReps).map { _ => val t0 = System.nanoTime(); inputs = generate(wl, opts.seed); secs(t0) }

    // The workload's defining regime, checked on the generated graphs.
    for (in <- inputs; gr <- in) {
      val ok = if (wl.highR) gr.r >= MinHighR else gr.r < MaxLowR
      if (!ok) {
        System.err.println(f"tipbench: ${opts.workload} seed ${opts.seed}: ${gr.name} has r = ${gr.r}%.2f, " +
          (if (wl.highR) f"needs r >= $MinHighR%.0f" else f"needs r < $MaxLowR%.0f") + "; workload left its regime")
        sys.exit(3)
      }
    }

    val tSpark = System.nanoTime()
    val spark: SparkSession =
      if (!wl.spark) null
      else {
        val tmp = sys.props("java.io.tmpdir")
        val s = SparkSession.builder
          .master(s"local[$threads]")
          .appName("tipbench")
          .config("spark.ui.enabled", "false")
          .config("spark.driver.host", "127.0.0.1")
          .config("spark.log.level", "WARN")
          .config("spark.local.dir", tmp)
          .config("spark.sql.warehouse.dir", tmp + "/warehouse")
          .config("spark.sql.autoBroadcastJoinThreshold", -1)
          .config("spark.sql.shuffle.partitions", 2 * threads)
          .getOrCreate()
        s.sparkContext.setLogLevel("WARN")
        s
      }
    val dfs: IndexedSeq[IndexedSeq[DataFrame]] =
      if (spark == null) IndexedSeq.empty else inputs.map(_.map(gr => BipartiteGen.edgesDF(spark, gr.g)))
    val sparkS = if (spark == null) 0.0 else secs(tSpark)
    val listener = if (spark != null && opts.trace) {
      val l = new SparkLayerListener(spark.sparkContext)
      spark.sparkContext.addSparkListener(l)
      l
    } else null

    def untraced(i: Int): JobOut = {
      val outs = inputs(i).indices.map { k =>
        val g = inputs(i)(k).g
        if (spark == null) {
          val r = ReceiptLocal.run(g, cfg)
          val m = r.metrics
          (r.tips, Seq(m.rounds, m.hucTriggers.toLong, m.cntInitWedges, m.hucWedges, m.cdPeelWedges, m.fdWedges))
        } else {
          val r = SparkReceipt.run(spark, dfs(i)(k), g.nU, g.nV)
          (r.tips, sparkCounts(r.metrics))
        }
      }
      JobOut(outs.map(_._1), outs.flatMap(_._2), Map.empty)
    }

    // Local layers as separate calls: counting, CD, FD (run = CD then FD).
    def tracedLocal(i: Int, trace: Int): JobOut = {
      val tips = ArrayBuffer[Array[Long]]()
      val counts = ArrayBuffer[Long]()
      val l = scala.collection.mutable.Map[String, Double]().withDefaultValue(0.0)
      tracer.span(trace, 0, "job") { id =>
        for (gr <- inputs(i)) {
          val (cnt, sCount) = tracer.span(trace, id, "count")(_ => ButterflyCounting.vertexPriority(gr.g, cfg.threads))
          val (cd, sCd) = tracer.span(trace, id, "cd")(_ => ReceiptLocal.coarseDecomposition(gr.g, cfg))
          val ((t, fdW), sFd) = tracer.span(trace, id, "fd")(_ => ReceiptLocal.fineDecomposition(gr.g, cd, cfg))
          tips += t
          counts ++= Seq(cd.rounds, cd.hucTriggers.toLong, cd.cntInitWedges, cd.hucWedges, cd.peelWedges, fdW)
          l("count_s") += sCount.seconds; l("count_wedges") += cnt.wedges
          l("cd_s") += sCd.seconds; l("cd_count_s") += cd.cntTimeMs / 1e3; l("cd_peel_s") += cd.peelTimeMs / 1e3
          l("rounds") += cd.rounds; l("huc_triggers") += cd.hucTriggers; l("huc_wedges") += cd.hucWedges
          l("peel_wedges") += cd.peelWedges; l("subsets") += cd.subsets
          l("fd_s") += sFd.seconds; l("fd_wedges") += fdW
          l("decomp_s") += sCd.seconds + sFd.seconds
          l("total_wedges") += cd.cntInitWedges + cd.hucWedges + cd.peelWedges + fdW
        }
      }
      JobOut(tips.toSeq, counts.toSeq, l.toMap)
    }

    // Spark's clock is wall-clock milliseconds; spans use nanoTime.
    val wallToNano = System.nanoTime() - System.currentTimeMillis() * 1000000L

    // One span around SparkReceipt.run, one child span per Spark job.
    def tracedSpark(i: Int, trace: Int): JobOut = {
      val before = listener.drain()
      val (rs, root) = tracer.span(trace, 0, "SparkReceipt.run") { _ =>
        inputs(i).indices.map(k => SparkReceipt.run(spark, dfs(i)(k), inputs(i)(k).g.nU, inputs(i)(k).g.nV))
      }
      val after = listener.drain()
      val d = after.minus(before)
      listener.jobSpans.asScala.slice(before.jobSpans, after.jobSpans).foreach { case (jobId, s, e) =>
        tracer.add(Span(trace, tracer.newId(), root.id, s"spark.job.$jobId", s * 1000000L + wallToNano, e * 1000000L + wallToNano))
      }
      val ms = rs.map(_.metrics)
      JobOut(rs.map(_.tips), ms.flatMap(sparkCounts),
        Map(
          "spark_s" -> root.seconds, "decomp_s" -> root.seconds,
          "count_s" -> ms.map(_.cntTimeMs).sum / 1e3, "cd_s" -> ms.map(_.cdTimeMs).sum / 1e3,
          "fd_s" -> ms.map(_.fdTimeMs).sum / 1e3,
          "rounds" -> ms.map(_.rounds).sum.toDouble, "huc_triggers" -> ms.map(_.hucTriggers).sum.toDouble,
          "jobs" -> d.jobs.toDouble, "stages" -> d.stages.toDouble, "tasks" -> d.tasks.toDouble,
          "task_busy_s" -> d.taskRunMs / 1e3, "shuffle_mb" -> d.shuffleBytes / 1e6
        ))
    }

    // Exact work counts must repeat between jobs on the same input.
    val firstCounts = scala.collection.mutable.Map[Int, Seq[Long]]()
    val countMismatches = ArrayBuffer[String]()
    def checkCounts(i: Int, c: Seq[Long]): Unit = firstCounts.get(i) match {
      case None => firstCounts(i) = c
      case Some(c0) => if (c0 != c) countMismatches += s"input $i: ${c0.mkString(",")} then ${c.mkString(",")}"
    }

    // ---- set-up: warm-up jobs ----
    val warmupJobs = wl.warmup
    val tWarm = System.nanoTime()
    for (k <- 0 until warmupJobs) { val o = untraced(k % wl.inputs); checkCounts(k % wl.inputs, o.counts) }
    val warmupS = secs(tWarm)

    // ---- reference: sequential BUP per graph, graphs in parallel ----
    val flat = for (i <- inputs.indices; k <- inputs(i).indices) yield (i, k)
    val tRef = System.nanoTime()
    val refPool = Executors.newFixedThreadPool(math.min(threads, flat.size))
    val refs = try {
      refPool.invokeAll(flat.map { case (i, k) => new Callable[(Array[Long], Double, Long)] {
        def call() = {
          val t0 = System.nanoTime()
          val r = BUP.run(inputs(i)(k).g)
          (r.tips, secs(t0), r.metrics.totalWedges)
        }
      }}.asJava).asScala.map(_.get()).toIndexedSeq
    } finally refPool.shutdown()
    val refWallS = secs(tRef)
    val refOf = flat.zip(refs).toMap

    // ---- timed phase: closed loop, one client ----
    final case class JobRec(input: Int, traced: Boolean, s: Double, allocBytes: Long, ok: Boolean,
                            error: String, layers: Map[String, Double])
    val jobs = ArrayBuffer[JobRec]()
    val tLoop = System.nanoTime()
    val deadline = tLoop + (opts.seconds * 1e9).toLong
    // A traced run needs one traced and one untraced job at least.
    val minJobs = if (opts.trace) 2 else 1
    var k = 0
    while (k < minJobs || System.nanoTime() < deadline) {
      val traced = opts.trace && k % 2 == 1
      val i = (if (opts.trace) k / 2 else k) % wl.inputs
      val a0 = tmx.getTotalThreadAllocatedBytes
      val t0 = System.nanoTime()
      val out = Try {
        if (!traced) untraced(i) else if (spark == null) tracedLocal(i, k) else tracedSpark(i, k)
      }
      val dt = secs(t0)
      val alloc = tmx.getTotalThreadAllocatedBytes - a0
      jobs += (out match {
        case Success(o) =>
          checkCounts(i, o.counts)
          val bad = o.tips.indices.filterNot(g => java.util.Arrays.equals(o.tips(g), refOf((i, g))._1))
          JobRec(i, traced, dt, alloc, bad.isEmpty,
            if (bad.isEmpty) null else s"tips differ from BUP on ${bad.map(inputs(i)(_).name).mkString(",")}", o.layers)
        case Failure(e) => JobRec(i, traced, dt, alloc, ok = false, e.toString, Map.empty)
      })
      k += 1
    }
    val loopS = secs(tLoop)

    // ---- traced run only: local layers on Spark inputs, FD task replay ----
    val localLayers = ArrayBuffer[Map[String, Double]]()
    val replay = ArrayBuffer[Map[String, Double]]()
    if (opts.trace) {
      if (spark != null) for (rep <- 0 until 3; i <- inputs.indices) {
        val o = tracedLocal(i, k); k += 1
        checkCounts(-1 - i, o.counts)
        localLayers += o.layers + ("input" -> i.toDouble)
      }
      // Each CD subset's BUP.peel on g.filterU(mask) with cd.supInit, as FD runs it, one at a time.
      for (i <- inputs.indices) {
        var taskMax, taskSum = 0.0
        tracer.span(k, 0, "fd.replay") { id =>
          for (gr <- inputs(i)) {
            val cd = ReceiptLocal.coarseDecomposition(gr.g, cfg)
            val members = Array.fill(cd.subsets)(ArrayBuffer[Int]())
            for (u <- 0 until gr.g.nU if cd.subsetOf(u) >= 0) members(cd.subsetOf(u)) += u
            var graphMax = 0.0
            for (ms <- members if ms.nonEmpty) {
              val (_, s) = tracer.span(k, id, "fd.task") { _ =>
                val mask = new Array[Boolean](gr.g.nU)
                ms.foreach(mask(_) = true)
                BUP.peel(gr.g.filterU(mask), cd.supInit, ms.toArray, enableDGM = cfg.enableDGM)
              }
              graphMax = math.max(graphMax, s.seconds); taskSum += s.seconds
            }
            taskMax += graphMax
          }
        }
        k += 1
        replay += Map("task_max_s" -> taskMax, "task_sum_s" -> taskSum)
      }
      tracer.writeJsonLines(java.nio.file.Paths.get(opts.spans))
    }

    val heapArg = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(_.startsWith("-Xmx")).lastOption
    val report = Json.obj(
      "workload" -> opts.workload, "seed" -> opts.seed, "trace" -> opts.trace,
      "provenance" -> Map(
        "nproc" -> threads, "heap" -> heapArg.getOrElse("(default)"),
        "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
        "jdk" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
        "receipt_threads" -> cfg.threads, "P" -> cfg.P,
        "spark_master" -> (if (spark == null) "none" else spark.sparkContext.master),
        "shuffle_partitions" -> (if (spark == null) "none" else spark.conf.get("spark.sql.shuffle.partitions")),
        "warmup_jobs" -> warmupJobs, "inputs" -> wl.inputs,
        "graphs" -> inputs.zipWithIndex.flatMap { case (in, i) => in.map(gr =>
          Map("input" -> i, "name" -> gr.name, "nU" -> gr.g.nU, "nV" -> gr.g.nV, "m" -> gr.g.m, "r" -> gr.r)) }
      ),
      "setup" -> Map("startup_s" -> startupS, "gen_s" -> genS, "spark_s" -> sparkS, "warmup_s" -> warmupS),
      "reference" -> Map("wall_s" -> refWallS,
        "bup_s" -> inputs.indices.map(i => inputs(i).indices.map(g => refOf((i, g))._2).sum),
        "bup_wedges" -> inputs.indices.map(i => inputs(i).indices.map(g => refOf((i, g))._3).sum)),
      "edges" -> inputs.map(_.map(_.g.m.toLong).sum),
      "loop_s" -> loopS,
      "jobs" -> jobs.map(j => Map("input" -> j.input, "traced" -> j.traced, "s" -> j.s,
        "alloc_bytes" -> j.allocBytes, "ok" -> j.ok, "error" -> j.error, "layers" -> j.layers)),
      "count_mismatches" -> countMismatches,
      "local_layers" -> localLayers,
      "replay" -> replay
    )
    if (spark != null) spark.stop()
    println("TIPBENCH " + report)
  }
}
