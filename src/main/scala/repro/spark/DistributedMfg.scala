package repro.spark

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{Enumerators, Params, VFree, Deadline}
import repro.graph.TemporalBipartiteGraph

/** Distributed MFG enumeration: the repo's `repro_why` dataflow mapping.
  *
  * Pipeline:
  *  1. prune the edge table with the snapshot-partitioned GFCore
  *     ([[GFCoreDF]]);
  *  2. collect the (heavily pruned) graph, apply the VFree ID reorder, and
  *     broadcast it to the executors;
  *  3. distribute the root-level search branches ("seeds", one per V vertex
  *     in reordered-id order) over a Dataset and run each branch with the
  *     exact VFree engine — root branches are independent and their results
  *     are globally maximal without cross-partition reconciliation
  *     (Theorem 4.1's order argument);
  *  4. return the MFGs as a DataFrame of sorted label arrays.
  *
  * Each partition instantiates VFree once and reuses its counting arrays
  * across all its seeds (they return to the zero state between seeds).
  */
object DistributedMfg {

  /** Runs the pipeline; output DataFrame has one `group: array<long>` column
    * with the MFG's V-side labels in ascending order.
    */
  def run(spark: SparkSession, edges: DataFrame, p: Params): DataFrame = plan(spark, edges, p)._1

  /** Collects the result as a canonical set of label sets (test helper), then
    * destroys the graph broadcast.
    */
  def runToSets(spark: SparkSession, edges: DataFrame, p: Params): Set[Set[Long]] = {
    val (groups, bc) = plan(spark, edges, p)
    try groups.collect().map(_.getSeq[Long](0).toSet).toSet finally bc.destroy()
  }

  /** The result DataFrame and the graph broadcast it reads. */
  private def plan(spark: SparkSession, edges: DataFrame, p: Params): (DataFrame, Broadcast[TemporalBipartiteGraph]) = {
    import spark.implicits._
    val pruned = GFCoreDF(edges, p)
    val g = Enumerators.reorderByDegree(TemporalBipartiteGraph.fromDF(pruned))
    val bc = spark.sparkContext.broadcast(g)
    val parallelism = math.max(1, math.min(g.nV, spark.sparkContext.defaultParallelism * 2))
    val groups = spark.range(0, g.nV.toLong)
      .repartition(parallelism)
      .mapPartitions { seeds =>
        val engine = new VFree(bc.value, p, Deadline.unlimited)
        seeds.flatMap(seed => engine.runSeed(seed.toInt).iterator.map(_.toArray.sorted))
      }
      .toDF("group")
    (groups, bc)
  }
}
