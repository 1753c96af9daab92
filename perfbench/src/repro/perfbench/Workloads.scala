package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit, pmod}

import repro.bench.Datasets
import repro.bench.Datasets.DatasetSpec

/** The benchmark's workloads. Each runs the local VFree pipeline
  * (`TemporalBipartiteGraph.fromDF` then `Enumerators.vFree`) and one query
  * kind, whose response time is the `query_s` metric.
  */
object Workloads {

  sealed trait Query
  /** `DistributedMfg.runToSets` on the cached edge table. */
  case object Distributed extends Query
  /** `Enumerators.filterV` on the loaded graph, timed, and
    * `Enumerators.bkAlgPlus` once per run, untimed, as a check.
    */
  case object PaperEngines extends Query

  /** `warmUps`: untimed repetitions before the measured ones. `minReps`:
    * measured repetitions an untraced run makes even when they take longer
    * than `--seconds`, so that `query_s` is a median of that many calls.
    * `localCalls`: local pipeline calls per repetition. `pins`: the result
    * every seed must give (MFG count, digest of the MFG set in the
    * stand-in's own labels, input edges).
    */
  final case class Workload(name: String, spec: DatasetSpec, query: Query, warmUps: Int, minReps: Int,
                            localCalls: Int, pins: Map[String, String])

  /** The benchmark seed's effect on the input: U labels go through a seeded
    * permutation (u -> (u k + c) mod P, a bijection on [0, P)), V labels and
    * timestamps through seeded increasing maps. Every seed therefore gives
    * another edge table of the same graph up to isomorphism, with V and T in
    * the same order. The MFG set (mapped back to the original V labels) and
    * every search counter are the same for every seed, so one pinned result
    * per workload checks all seeds, and run-to-run spread is measurement
    * noise rather than a change of graph.
    */
  final case class Relabel(k: Long, c: Long, vScale: Long, vShift: Long, tScale: Long, tShift: Long) {
    def apply(edges: DataFrame): DataFrame = edges.select(
      pmod(col("u") * k + c, lit(Relabel.P)).as("u"),
      (col("v") * vScale + vShift).as("v"),
      (col("t") * tScale + tShift).as("t"))

    def originalV(label: Long): Long = (label - vShift) / vScale
  }

  object Relabel {
    /** Prime above every U label of the stand-ins. */
    val P = 2147483647L
    val identity = Relabel(1, 0, 1, 0, 1, 0)

    /** The dataset's own seed (the default) keeps the stand-in's labels. */
    def apply(seed: Long, datasetSeed: Long): Relabel =
      if (seed == datasetSeed) identity
      else {
        val r = new scala.util.Random(seed)
        Relabel(1 + r.nextInt(Int.MaxValue - 1), r.nextInt(1 << 30).toLong,
          2 + r.nextInt(1000), r.nextInt(1 << 20).toLong, 2 + r.nextInt(1000), r.nextInt(1 << 20).toLong)
      }
  }

  // d4-deep: the search and GFCoreDF do most of the work (12,698 MFGs).
  // DistributedMfg slows its first three calls in a JVM while Spark's
  // planning code compiles (about 10, 7 and 5 s, then a 4 s plateau), hence
  // three warm-ups.
  // d14-default: paper Table 1's setting; the layers before the search cost
  // more than the search, and FilterV / BK-ALG+ run only here. One warm-up
  // takes `fromDF`'s first Spark collect out of the measurement and lets the
  // JIT compile FilterV's search (a budgeted call).
  // d4-deep's local calls are cheap next to its query, so each repetition
  // makes two, and two repetitions fit in 10 s. On d14-default a repetition
  // is one local call and FilterV (about 2 + 3.5 s); five of them give both
  // timings medians of five calls spread over the run.
  val all: Seq[Workload] = Seq(
    Workload("d4-deep", Datasets.byName("D4"), Distributed, warmUps = 3, minReps = 2, localCalls = 2,
      pins("12698", "20c97d45e7470dc8", "33119")),
    Workload("d14-default", Datasets.byName("D14"), PaperEngines, warmUps = 1, minReps = 5, localCalls = 1,
      pins("21", "299e13d7f13b738d", "166561")),
  )

  private def pins(mfgs: String, digest: String, edges: String): Map[String, String] =
    Map("mfg.count" -> mfgs, "mfg.digest" -> digest, "graph.edges" -> edges)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; expected one of ${all.map(_.name).mkString(", ")}"))
}
