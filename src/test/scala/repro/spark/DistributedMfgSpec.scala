package repro.spark

import repro.{SparkSpec, TestGraphs}
import repro.bench.Datasets
import repro.core.{BruteForce, Enumerators, Params}
import repro.graph.TemporalBipartiteGraph

/** The distributed pipeline (snapshot-partitioned GFCore + broadcast graph + seed-
  * parallel VFree) must return exactly the local result set.
  */
class DistributedMfgSpec extends SparkSpec {

  test("distributed ≡ brute force on the planted graph") {
    val g = TestGraphs.planted
    val e = fromTriples(g.labeledEdges.toSeq)
    val p = Params(2, 2, 3)
    assert(DistributedMfg.runToSets(spark, e, p) == Set(Set(10L, 11L, 12L)))
  }

  test("distributed ≡ local VFree on a random graph (seed 21)") {
    val g = TestGraphs.random(8, 9, 5, 0.45, 21)
    val e = fromTriples(g.labeledEdges.toSeq)
    val p = Params(2, 2, 2)
    val local = Enumerators.vFree(g, p).results.get
    assert(DistributedMfg.runToSets(spark, e, p) == local)
    assert(local == BruteForce.mfgLabels(g, p))
  }

  test("distributed ≡ local VFree with overlapping MFGs (seed 22)") {
    val g = TestGraphs.random(9, 9, 4, 0.55, 22)
    val e = fromTriples(g.labeledEdges.toSeq)
    val p = Params(2, 1, 2)
    assert(DistributedMfg.runToSets(spark, e, p) == Enumerators.vFree(g, p).results.get)
  }

  test("distributed handles a fully-pruned graph (empty result)") {
    val g = TestGraphs.tiny
    val e = fromTriples(g.labeledEdges.toSeq)
    assert(DistributedMfg.runToSets(spark, e, Params(3, 3, 5)).isEmpty)
  }

  test("distributed ≡ local VFree on the D4 stand-in (12,698 MFGs)") {
    val spec = Datasets.byName("D4")
    val e = spec.edges(spark).cache()
    val local = Enumerators.vFree(TemporalBipartiteGraph.fromDF(e), spec.defaults).results.get
    assert(local.size == 12698)
    assert(DistributedMfg.runToSets(spark, e, spec.defaults) == local)
    e.unpersist()
  }

  test("result DataFrame groups are sorted label arrays") {
    val g = TestGraphs.planted
    val e = fromTriples(g.labeledEdges.toSeq)
    val rows = DistributedMfg.run(spark, e, Params(2, 2, 3)).collect()
    for (r <- rows) {
      val arr = r.getSeq[Long](0)
      assert(arr == arr.sorted)
    }
  }
}
