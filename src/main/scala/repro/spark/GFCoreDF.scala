package repro.spark

import scala.collection.mutable

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel

import repro.core.Params
import repro.graph.{AlphaBetaCore, TemporalBipartiteGraph}

/** The (τ_V, τ_U, λ)-core graph filter (Algorithm 2) over Spark — the
  * distributed form of the greatest-fixpoint reference that the tests hold
  * (`repro.core.GFCoreFixpoint`, test scope); the tests check it against
  * the local cascade [[repro.core.GFCore.filterEdges]].
  *
  * The per-snapshot (τ_V, τ_U)-core peels are independent across t and
  * interact only through the λ survival count s[v]. So the edge table is
  * shuffled by t once, and each partition keeps one local graph that holds
  * whole snapshots. Each λ round broadcasts the alive V labels; every
  * partition peels its snapshots with [[AlphaBetaCore.snapshot]] and returns
  * per-v survival counts, which the driver merges, keeping v with s[v] ≥ λ.
  * Rounds repeat until one removes no v; the surviving edges are then
  * emitted as a materialized DataFrame.
  *
  * Assumes a single snapshot fits in one task.
  */
object GFCoreDF {

  def apply(edges: DataFrame, p: Params): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    val sc = spark.sparkContext
    val graphs: RDD[TemporalBipartiteGraph] = BipartiteDF.project(edges)
      .repartition(sc.defaultParallelism, col("t"))
      .as[(Long, Long, Long)].rdd
      .mapPartitions(it => if (it.hasNext) Iterator(TemporalBipartiteGraph.fromEdges(it.toSeq)) else Iterator.empty)
      .persist(StorageLevel.MEMORY_ONLY)
    var alive: Option[Broadcast[Array[Long]]] = None // None: every v is alive
    try {
      var stable = false
      while (!stable) {
        val bc = alive
        val counts = graphs.map { g =>
          val vAlive = aliveMask(g, bc.map(_.value))
          val s = new Array[Int](g.nV)
          forEachCore(g, p, vAlive) { (_, _, vIn) =>
            var v = 0
            while (v < g.nV) { if (vIn(v)) s(v) += 1; v += 1 }
          }
          val ids = (0 until g.nV).filter(vAlive(_)).toArray
          (ids.map(g.vLabels(_)), ids.map(s(_)))
        }.collect()
        // Keys: every v alive at the start of the round.
        val merged = mutable.LongMap.empty[Int]
        for ((labels, s) <- counts; i <- labels.indices)
          merged(labels(i)) = merged.getOrElse(labels(i), 0) + s(i)
        val survivors = merged.iterator.collect { case (v, s) if s >= p.lambda => v }.toArray.sorted
        stable = survivors.length == merged.size
        val next = sc.broadcast(survivors)
        bc.foreach(_.destroy())
        alive = Some(next)
      }
      val bc = alive.get
      graphs.flatMap { g =>
        val out = mutable.ArrayBuffer.empty[(Long, Long, Long)]
        forEachCore(g, p, aliveMask(g, Some(bc.value))) { (t, uIn, vIn) =>
          var u = 0
          while (u < g.nU) {
            if (uIn(u)) g.gammaU(t)(u).foreach(v => if (vIn(v)) out += ((g.uLabels(u), g.vLabels(v), g.tLabels(t))))
            u += 1
          }
        }
        out
      }.toDF("u", "v", "t").localCheckpoint()
    } finally {
      graphs.unpersist(blocking = true)
      alive.foreach(_.destroy())
    }
  }

  /** Flags the V ids of `g` whose label is in the sorted `alive` (all if None). */
  private def aliveMask(g: TemporalBipartiteGraph, alive: Option[Array[Long]]): Array[Boolean] =
    alive match {
      case None         => Array.fill(g.nV)(true)
      case Some(labels) => g.vLabels.map(java.util.Arrays.binarySearch(labels, _) >= 0)
    }

  /** Peels the (τ_V, τ_U)-core of every snapshot of `g` restricted to
    * `vAlive`, and passes (t, U survivors, V survivors) to `f`.
    */
  private def forEachCore(g: TemporalBipartiteGraph, p: Params, vAlive: Array[Boolean])
                         (f: (Int, Array[Boolean], Array[Boolean]) => Unit): Unit = {
    val allU = Array.fill(g.nU)(true)
    var t = 0
    while (t < g.nT) {
      val (uIn, vIn) = AlphaBetaCore.snapshot(g, t, p.tauV, p.tauU, allU, vAlive)
      f(t, uIn, vIn)
      t += 1
    }
  }
}
