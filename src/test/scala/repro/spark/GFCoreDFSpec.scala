package repro.spark

import org.apache.spark.SparkEnv

import repro.{SparkSpec, TestGraphs}
import repro.bench.Datasets
import repro.core.{GFCore, Params}
import repro.graph.TemporalBipartiteGraph

/** The snapshot-partitioned GFCore must compute exactly the same
  * (τ_V, τ_U, λ)-core as the in-memory peeling implementation (the fixpoint
  * is unique).
  */
class GFCoreDFSpec extends SparkSpec {

  /** Asserts GFCoreDF ≡ local GFCore on `g`; returns the kept labelled edges. */
  private def check(g: TemporalBipartiteGraph, p: Params): Set[(Long, Long, Long)] = {
    val e = fromTriples(g.labeledEdges.toSeq)
    val dfEdges = GFCoreDF(e, p).collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2))).toSet
    val localEdges = GFCore.filterEdges(g, p)
      .map { case (u, v, t) => (g.uLabels(u), g.vLabels(v), g.tLabels(t)) }.toSet
    assert(dfEdges == localEdges,
      s"DF-only: ${dfEdges -- localEdges}; local-only: ${localEdges -- dfEdges}")
    dfEdges
  }

  private def check(seed: Long, p: Params): Unit = check(TestGraphs.random(7, 7, 4, 0.45, seed), p)

  test("GFCoreDF ≡ local GFCore (seed 1, (2,2,2))") { check(1, Params(2, 2, 2)) }
  test("GFCoreDF ≡ local GFCore (seed 2, (2,1,3))") { check(2, Params(2, 1, 3)) }
  test("GFCoreDF ≡ local GFCore (seed 3, (1,1,1))") { check(3, Params(1, 1, 1)) }

  for ((name, kept) <- Seq("D3" -> None, "D4" -> Some(16215))) {
    test(s"GFCoreDF ≡ local GFCore on the $name stand-in at its defaults") {
      val spec = Datasets.byName(name)
      val g = TemporalBipartiteGraph.fromDF(spec.edges(spark))
      val edges = check(g, spec.defaults)
      kept.foreach(k => assert(edges.size == k))
    }
  }

  test("GFCoreDF follows a λ cascade over several rounds") {
    val kept = check(TestGraphs.lambdaCascade, Params(1, 2, 2))
    assert(kept == (for (u <- 3L to 4L; v <- 3L to 4L; t <- 3L to 4L) yield (u, v, t)).toSet)
  }

  test("GFCoreDF ≡ local GFCore with one snapshot, fewer than the partitions") {
    assert(check(TestGraphs.random(7, 7, 1, 0.6, 4), Params(2, 2, 1)).nonEmpty)
  }

  test("GFCoreDF ≡ local GFCore on sparse and negative timestamps") {
    val ts = Array(-40L, -3L, 0L, 17L, 1000L)
    val g0 = TestGraphs.random(7, 7, ts.length, 0.45, 5)
    val g = TemporalBipartiteGraph.fromEdges(g0.labeledEdges.map { case (u, v, t) => (u, v, ts(t.toInt)) })
    assert(check(g, Params(2, 2, 2)).exists(_._3 < 0))
  }

  test("GFCoreDF prunes everything when λ exceeds |T|") {
    val g = TestGraphs.random(7, 7, 4, 0.7, 6)
    assert(check(g, Params(1, 1, 5)).isEmpty)
  }

  test("GFCoreDF keeps a planted group and drops noise") {
    val g = TestGraphs.planted
    val e = fromTriples(g.labeledEdges.toSeq)
    val kept = GFCoreDF(e, Params(2, 2, 3)).collect()
    assert(kept.nonEmpty)
    assert(kept.map(_.getLong(1)).toSet == Set(10L, 11L, 12L))
  }

  test("GFCoreDF fully prunes an infrequent graph") {
    val g = TestGraphs.tiny
    val e = fromTriples(g.labeledEdges.toSeq)
    assert(GFCoreDF(e, Params(2, 2, 5)).count() == 0)
  }

  test("GFCoreDF keeps no persisted state beyond its results") {
    val sc = spark.sparkContext
    // getPersistentRDDs holds weak references; stored blocks outlive them.
    def storedRdds = SparkEnv.get.blockManager.getMatchingBlockIds(_.isRDD).flatMap(_.asRDDId).map(_.rddId).toSet
    val e = fromTriples(TestGraphs.random(7, 7, 4, 0.45, 1).labeledEdges.toSeq)
    val results = (1 to 3).map { _ =>
      val (persisted, stored) = (sc.getPersistentRDDs.size, storedRdds.size)
      val kept = GFCoreDF(e, Params(2, 2, 2))
      assert(sc.getPersistentRDDs.size <= persisted + 1)
      assert(storedRdds.size <= stored + 1)
      kept
    }
    assert(results.map(_.count()).distinct.size == 1)
  }
}
