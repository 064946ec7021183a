package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bipartite.BipartiteGraph

/** Synthetic stand-ins for the paper's six KOBLENZ bipartite datasets.
  *
  * The originals (Italian/English Wikipedia edits, Delicious, Orkut,
  * LiveJournal, web trackers; 12.6M–327M edges) are not available offline,
  * so each is replaced by a "-lite" graph ~100–1000× smaller that keeps the
  * *shape* that drives the paper's results: the |U|/|V| ratio and per-side
  * Zipf degree skew. The skew exponents are chosen so that the ratio
  * `r = Λ^peel / Λ^cnt` (peeling wedges over counting wedges) is ≫100 for
  * the U side of the It/Lj/En/Tr analogues — the regime where the paper's
  * HUC optimization dominates — and small for every V side, mirroring
  * table 3. Documented as a dataset substitution in DESIGN.md.
  *
  * Edges are sampled as independent (zipf(U), zipf(V)) pairs and
  * deduplicated, deterministic in the seed.
  */
object BipartiteGen {

  /** @param name    two-letter dataset tag, as in the paper (It, De, …)
    * @param nU      size of the high-wedge side (labelled U, as the paper does)
    * @param nV      size of the other side
    * @param targetM edges drawn before deduplication
    * @param alphaU  Zipf exponent of U-side degree skew
    * @param alphaV  Zipf exponent of V-side degree skew (hubs on V make
    *                peeling U expensive — the high-`r` regime)
    */
  final case class DatasetConfig(
      name: String,
      nU: Int,
      nV: Int,
      targetM: Int,
      alphaU: Double,
      alphaV: Double,
      seed: Long
  )

  /** The six scaled datasets. Ratios |U|:|V| follow table 2 of the paper. */
  val datasets: Seq[DatasetConfig] = Seq(
    // It: pages/editors, it.wikipedia — |U|≈16×|V|, strong V hubs (editors)
    DatasetConfig("It", nU = 24000, nV = 1500, targetM = 130000, alphaU = 0.55, alphaV = 1.15, seed = 101),
    // De: users/tags, delicious — |U|≈5.4×|V|, broad V skew
    DatasetConfig("De", nU = 23000, nV = 4200, targetM = 220000, alphaU = 0.65, alphaV = 0.88, seed = 102),
    // Or: users/groups, Orkut — |V|≈3×|U|, dense U side but V hubs dominate
    DatasetConfig("Or", nU = 8000, nV = 25000, targetM = 300000, alphaU = 0.50, alphaV = 0.98, seed = 103),
    // Lj: users/groups, LiveJournal — |V|≈2.3×|U|
    DatasetConfig("Lj", nU = 10000, nV = 23000, targetM = 220000, alphaU = 0.60, alphaV = 1.12, seed = 104),
    // En: pages/editors, en.wikipedia — |U|≈5.6×|V|
    DatasetConfig("En", nU = 40000, nV = 7200, targetM = 200000, alphaU = 0.50, alphaV = 1.18, seed = 105),
    // Tr: domains/trackers — |U|≈2.2×|V|, extreme V hubs (trackers) ⇒ r≫1000
    DatasetConfig("Tr", nU = 52000, nV = 24000, targetM = 220000, alphaU = 0.45, alphaV = 1.35, seed = 106)
  )

  def byName(name: String): DatasetConfig =
    datasets.find(_.name == name).getOrElse(sys.error(s"unknown dataset $name"))

  /** Zipf sampler over ranks 1..n with weight 1/k^alpha (inverse-CDF with a
    * precomputed cumulative table and binary search).
    */
  final class Zipf(n: Int, alpha: Double, rnd: java.util.Random) {
    private val cum = new Array[Double](n)
    locally {
      var s = 0.0
      var k = 0
      while (k < n) { s += 1.0 / math.pow(k + 1.0, alpha); cum(k) = s; k += 1 }
      k = 0
      while (k < n) { cum(k) /= s; k += 1 }
    }
    def next(): Int = {
      val x = rnd.nextDouble()
      var loI = 0; var hiI = n - 1
      while (loI < hiI) {
        val mid = (loI + hiI) >>> 1
        if (cum(mid) < x) loI = mid + 1 else hiI = mid
      }
      loI
    }
  }

  /** Deterministic local generation (the same graph feeds the local kernels
    * and, via [[edgesDF]], the Spark dataflow).
    */
  def generate(cfg: DatasetConfig): BipartiteGraph = {
    val rnd = new java.util.Random(cfg.seed)
    val zu = new Zipf(cfg.nU, cfg.alphaU, rnd)
    val zv = new Zipf(cfg.nV, cfg.alphaV, rnd)
    val packed = new Array[Long](cfg.targetM)
    var i = 0
    while (i < cfg.targetM) {
      packed(i) = (zu.next().toLong << 32) | (zv.next().toLong & 0xffffffffL)
      i += 1
    }
    BipartiteGraph.fromPacked(cfg.nU, cfg.nV, packed, dedup = true)
  }

  /** Edge DataFrame `(u: Long, v: Long)` for the Spark dataflow. */
  def edgesDF(spark: SparkSession, g: BipartiteGraph): DataFrame = {
    import spark.implicits._
    val rows = new Array[(Long, Long)](g.m)
    var k = 0
    var u = 0
    while (u < g.nU) {
      g.foreachNbrU(u) { v => rows(k) = (u.toLong, v.toLong); k += 1 }
      u += 1
    }
    spark.createDataset(rows.toSeq).toDF("u", "v")
  }
}
