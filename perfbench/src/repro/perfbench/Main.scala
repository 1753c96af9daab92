package repro.perfbench

import org.apache.spark.sql.SparkSession

/** Benchmark entry point.
  *
  * `--workload <name> [--seed <n>] --seconds <s> --trace <0|1>`
  *
  * Prints a human-readable report, then as its last line one JSON object
  * `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
  * with `--trace 0`, the per-layer metrics with `--trace 1`.
  */
object Main {

  final case class Config(workload: String, seed: Option[Long], seconds: Double, trace: Boolean)

  def parse(args: Array[String]): Config = {
    var c = Config("", None, 10.0, trace = false)
    args.grouped(2).foreach {
      case Array("--workload", v) => c = c.copy(workload = v)
      case Array("--seed", v)     => c = c.copy(seed = Some(v.toLong))
      case Array("--seconds", v)  => c = c.copy(seconds = v.toDouble)
      case Array("--trace", v)    => c = c.copy(trace = v == "1")
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }
    c
  }

  /** Fixed, so the GFCoreDF plans are the same on every machine. */
  val ShufflePartitions = 4

  /** Local Spark with n = min(4, cores) threads, configured as the repo's
    * jobs are (no broadcast joins).
    */
  def session(): SparkSession = {
    val n = math.min(4, Runtime.getRuntime.availableProcessors)
    val s = SparkSession.builder
      .master(s"local[$n]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s.range(1).count() // first-job start-up, kept out of setup_s
    s
  }

  def main(args: Array[String]): Unit = {
    val cfg = parse(args)
    val wl = Workloads.byName(cfg.workload)
    val spark = session()
    val line = try new Bench(spark, wl, cfg).run() finally spark.stop()
    println(line)
  }
}
