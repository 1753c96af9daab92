package repro.graph

import org.apache.spark.sql.{DataFrame, Row}

import scala.collection.mutable

import repro.spark.BipartiteDF

/** Compact in-memory temporal bipartite graph `G = (U, V, E)`.
  *
  * Vertices are relabelled to dense internal ids `0 until nU` / `0 until nV`
  * (ascending original label order); timestamps are relabelled to
  * `0 until nT` (ascending original timestamp order). Original labels are
  * kept so enumeration results can be reported in input-id space.
  *
  * Two adjacency views are materialised, both needed by the paper's
  * algorithms:
  *
  *  - static adjacency (`uAdj`, `vAdj`) — drives the `N(·,G)` intersections
  *    of BK-ALG and FilterV — with per-edge timestamp lists on the U side
  *    (`uAdjTs`), which CheckFRE (Algorithm 3) iterates as `T_{(u,v)}`;
  *  - per-snapshot adjacency (`gammaU(t)(u)`, `gammaV(t)(v)`) — drives the
  *    m-neighbor scans of GFCore (Algorithm 2) and VFree (Algorithm 4).
  *
  * The class is immutable and `Serializable` so it can be broadcast to
  * executors for the distributed enumeration.
  */
final class TemporalBipartiteGraph private[graph] (
    val nU: Int,
    val nV: Int,
    val nT: Int,
    /** u -> sorted distinct static neighbours in V. */
    val uAdj: Array[Array[Int]],
    /** u -> per-static-edge sorted timestamp list (parallel to `uAdj`). */
    val uAdjTs: Array[Array[Array[Int]]],
    /** v -> sorted distinct static neighbours in U. */
    val vAdj: Array[Array[Int]],
    /** t -> u -> sorted m-neighbours Γ(u,t) ⊆ V. */
    val gammaU: Array[Array[Array[Int]]],
    /** t -> v -> sorted m-neighbours Γ(v,t) ⊆ U. */
    val gammaV: Array[Array[Array[Int]]],
    /** internal u id -> original label. */
    val uLabels: Array[Long],
    /** internal v id -> original label. */
    val vLabels: Array[Long],
    /** internal t id -> original timestamp. */
    val tLabels: Array[Long],
) extends Serializable {

  /** Number of distinct temporal edges `(u, v, t)`. */
  val temporalEdgeCount: Long = {
    var s = 0L; var u = 0
    while (u < nU) { val ts = uAdjTs(u); var i = 0; while (i < ts.length) { s += ts(i).length; i += 1 }; u += 1 }
    s
  }

  /** Number of distinct static edges `(u, v)`. */
  val staticEdgeCount: Long = { var s = 0L; var u = 0; while (u < nU) { s += uAdj(u).length; u += 1 }; s }

  /** Structural degree d(v, G) for v ∈ V. */
  def sDegV(v: Int): Int = vAdj(v).length

  /** Structural degree d(u, G) for u ∈ U. */
  def sDegU(u: Int): Int = uAdj(u).length

  /** Momentary degree δ(v, t) for v ∈ V. */
  def mDegV(v: Int, t: Int): Int = gammaV(t)(v).length

  /** Momentary degree δ(u, t) for u ∈ U. */
  def mDegU(u: Int, t: Int): Int = gammaU(t)(u).length

  /** All temporal edges as internal-id triples (u, v, t), deterministic order. */
  def internalEdges: Array[(Int, Int, Int)] = {
    val out = Array.newBuilder[(Int, Int, Int)]
    var u = 0
    while (u < nU) {
      val vs = uAdj(u); val tss = uAdjTs(u); var i = 0
      while (i < vs.length) { val ts = tss(i); var k = 0; while (k < ts.length) { out += ((u, vs(i), ts(k))); k += 1 }; i += 1 }
      u += 1
    }
    out.result()
  }

  /** All temporal edges in original-label space. */
  def labeledEdges: Array[(Long, Long, Long)] =
    internalEdges.map { case (u, v, t) => (uLabels(u), vLabels(v), tLabels(t)) }

  /** Returns a copy with V-side internal ids permuted: new id `r` is old id
    * `perm(r)`. Used by VFree's ascending-structural-degree ID reorder.
    * `vLabels` is permuted consistently so results keep original labels.
    */
  def relabelV(perm: Array[Int]): TemporalBipartiteGraph = {
    require(perm.length == nV, s"perm size ${perm.length} != nV $nV")
    val inv = new Array[Int](nV)
    var r = 0
    while (r < nV) { inv(perm(r)) = r; r += 1 }
    val edges = internalEdges.map { case (u, v, t) => (u, inv(v), t) }
    TemporalBipartiteGraph.fromInternal(nU, nV, nT, edges, uLabels,
      Array.tabulate(nV)(r => vLabels(perm(r))), tLabels)
  }

  /** Static bipartite projection (every timestamp collapsed onto t = 0). */
  def collapseStatic: TemporalBipartiteGraph = {
    val edges = mutable.LinkedHashSet.empty[(Int, Int, Int)]
    internalEdges.foreach { case (u, v, _) => edges += ((u, v, 0)) }
    TemporalBipartiteGraph.fromInternal(nU, nV, 1, edges.toArray, uLabels, vLabels, Array(0L))
  }
}

object TemporalBipartiteGraph {

  /** Builds a graph from labelled temporal edges; duplicates are dropped
    * (by [[fromInternal]]).
    */
  def fromEdges(edges: Iterable[(Long, Long, Long)]): TemporalBipartiteGraph = {
    val all = edges.toArray
    val uLabels = all.map(_._1).distinct.sorted
    val vLabels = all.map(_._2).distinct.sorted
    val tLabels = all.map(_._3).distinct.sorted
    val uId = uLabels.zipWithIndex.toMap
    val vId = vLabels.zipWithIndex.toMap
    val tId = tLabels.zipWithIndex.toMap
    val internal = all.map { case (u, v, t) => (uId(u), vId(v), tId(t)) }
    fromInternal(uLabels.length, vLabels.length, tLabels.length, internal, uLabels, vLabels, tLabels)
  }

  /** Builds a graph from a Spark DataFrame with long-castable columns (u, v, t);
    * a null id fails with [[BipartiteDF.project]]'s error.
    */
  def fromDF(df: DataFrame): TemporalBipartiteGraph = {
    val rows = BipartiteDF.project(df).collect()
    fromEdges(rows.map { (r: Row) => (r.getLong(0), r.getLong(1), r.getLong(2)) })
  }

  /** Builds from internal-id triples; `nU`/`nV`/`nT` may exceed the ids used
    * (isolated vertices / empty timestamps allowed, e.g. after filtering).
    * Sort-based CSR construction — O(|E| log |E|), no per-edge boxing maps.
    */
  def fromInternal(nU: Int, nV: Int, nT: Int, edges: Array[(Int, Int, Int)],
                   uLabels: Array[Long], vLabels: Array[Long], tLabels: Array[Long]): TemporalBipartiteGraph = {
    val dedup = edges.distinct
    dedup.foreach { case (u, v, t) =>
      require(u >= 0 && u < nU && v >= 0 && v < nV && t >= 0 && t < nT, s"edge out of range: ($u,$v,$t)")
    }
    val empty = Array.empty[Int]

    /** Static U-side adjacency: edges sorted by (u, v, t); groups runs of u,
      * within them runs of v, collecting per-edge timestamp lists.
      */
    def staticCsr(sorted: Array[(Int, Int, Int)]): (Array[Array[Int]], Array[Array[Array[Int]]]) = {
      val adj = Array.fill[Array[Int]](nU)(empty)
      val ts = Array.fill[Array[Array[Int]]](nU)(Array.empty)
      var i = 0
      while (i < sorted.length) {
        val a = sorted(i)._1
        var j = i
        while (j < sorted.length && sorted(j)._1 == a) j += 1
        val nbrs = mutable.ArrayBuffer.empty[Int]
        val tls = mutable.ArrayBuffer.empty[Array[Int]]
        var k = i
        while (k < j) {
          val b = sorted(k)._2
          var m = k
          while (m < j && sorted(m)._2 == b) m += 1
          nbrs += b
          tls += Array.tabulate(m - k)(x => sorted(k + x)._3)
          k = m
        }
        adj(a) = nbrs.toArray
        ts(a) = tls.toArray
        i = j
      }
      (adj, ts)
    }

    /** Snapshot U-side adjacency: edges sorted by (t, u, v). */
    def snapCsr(sorted: Array[(Int, Int, Int)]): Array[Array[Array[Int]]] = {
      val out = Array.fill(nT)(Array.fill[Array[Int]](nU)(empty))
      var i = 0
      while (i < sorted.length) {
        val (t, a, _) = sorted(i)
        var j = i
        while (j < sorted.length && sorted(j)._1 == t && sorted(j)._2 == a) j += 1
        out(t)(a) = Array.tabulate(j - i)(x => sorted(i + x)._3)
        i = j
      }
      out
    }

    /** U-side adjacency turned into sorted V-side adjacency (u ascending). */
    def transpose(adj: Array[Array[Int]]): Array[Array[Int]] = {
      val deg = new Array[Int](nV)
      adj.foreach(_.foreach(v => deg(v) += 1))
      val out = deg.map(d => if (d == 0) empty else new Array[Int](d))
      java.util.Arrays.fill(deg, 0)
      var u = 0
      while (u < adj.length) {
        val nb = adj(u); var i = 0
        while (i < nb.length) { val v = nb(i); out(v)(deg(v)) = u; deg(v) += 1; i += 1 }
        u += 1
      }
      out
    }

    val byU = dedup.sortBy(e => (e._1, e._2, e._3))
    val (uAdj, uAdjTs) = staticCsr(byU)
    val gammaU = snapCsr(dedup.map { case (u, v, t) => (t, u, v) }.sortBy(e => (e._1, e._2, e._3)))
    new TemporalBipartiteGraph(nU, nV, nT, uAdj, uAdjTs, transpose(uAdj),
      gammaU, gammaU.map(transpose), uLabels, vLabels, tLabels)
  }
}
