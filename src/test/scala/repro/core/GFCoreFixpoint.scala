package repro.core

import repro.graph.{AlphaBetaCore, TemporalBipartiteGraph}

/** Reference (τ_V, τ_U, λ)-core for the tests: the greatest-fixpoint
  * formulation of Def. 3.2, written independently of [[GFCore.filterEdges]]'s
  * cascade. It alternates per-snapshot (τ_V, τ_U)-core peeling and
  * λ-survival filtering on V until stable; the fixpoint is unique, so both
  * must agree exactly. `repro.spark.GFCoreDF` is its distributed form.
  */
object GFCoreFixpoint {

  /** Surviving temporal edges (internal ids). */
  def filterEdges(g: TemporalBipartiteGraph, p: Params): Array[(Int, Int, Int)] = {
    val vAlive = Array.fill(g.nV)(true)
    val uAllTrue = Array.fill(g.nU)(true)
    var uIn: Array[Array[Boolean]] = null
    var vIn: Array[Array[Boolean]] = null
    var changed = true
    while (changed) {
      changed = false
      uIn = new Array[Array[Boolean]](g.nT)
      vIn = new Array[Array[Boolean]](g.nT)
      var t = 0
      while (t < g.nT) {
        val (ui, vi) = AlphaBetaCore.snapshot(g, t, p.tauV, p.tauU, uAllTrue, vAlive)
        uIn(t) = ui; vIn(t) = vi
        t += 1
      }
      var v = 0
      while (v < g.nV) {
        if (vAlive(v)) {
          var s = 0
          var tt = 0
          while (tt < g.nT) { if (vIn(tt)(v)) s += 1; tt += 1 }
          if (s < p.lambda) { vAlive(v) = false; changed = true }
        }
        v += 1
      }
    }
    g.internalEdges.filter { case (u, v, t) => uIn(t)(u) && vIn(t)(v) }
  }
}
