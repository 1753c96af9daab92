package repro.core

import repro.graph.TemporalBipartiteGraph

/** The (τ_V, τ_U, λ)-core graph filter (Definition 3.2 / Algorithm 2).
  *
  * [[filterEdges]] is the paper's CorePrune cascade in O(|E|): mutable
  * m-degrees δ(w,t) per snapshot plus the per-vertex survival counter s[w];
  * any violation (m-degree below τ, or s[v] below λ) removes the vertex at
  * that timestamp (or everywhere) and propagates to its neighbours through
  * an explicit work stack.
  *
  * The tests cross-check it against an independently written
  * greatest-fixpoint reference (`GFCoreFixpoint`, test scope): the fixpoint
  * of Def. 3.2 is unique, so both must agree exactly.
  */
object GFCore {

  /** Surviving temporal edges (internal ids) — Algorithm 2. */
  def filterEdges(g: TemporalBipartiteGraph, p: Params): Array[(Int, Int, Int)] = {
    val nU = g.nU; val nV = g.nV; val nT = g.nT
    // mutable m-degrees; 0 = removed at that snapshot
    val dU = Array.tabulate(nT, nU)((t, u) => g.mDegU(u, t))
    val dV = Array.tabulate(nT, nV)((t, v) => g.mDegV(v, t))
    // s[w]: number of snapshots where w is still present (lines 1-5)
    val sU = Array.tabulate(nU)(u => (0 until nT).count(t => dU(t)(u) > 0))
    val sV = Array.tabulate(nV)(v => (0 until nT).count(t => dV(t)(v) > 0))

    // explicit CorePrune stack; encode (t, side, id) in a Long
    val stack = new java.util.ArrayDeque[Long]()
    @inline def encU(t: Int, u: Int): Long = (t.toLong << 32) | u.toLong
    @inline def encV(t: Int, v: Int): Long = (t.toLong << 32) | (nU.toLong + v)

    // A neighbour's removal prunes w instead of decrementing when the decrement
    // would violate τ: a degree decremented to 0 reads as already removed, so
    // w would never be pushed and s[w] would never drop (τ = 1).
    def pruneU(t: Int, u: Int): Unit = if (dU(t)(u) > 0) { dU(t)(u) = 0; stack.push(encU(t, u)) }
    def pruneV(t: Int, v: Int): Unit = if (dV(t)(v) > 0) { dV(t)(v) = 0; stack.push(encV(t, v)) }

    def drain(): Unit = while (!stack.isEmpty) {
      val code = stack.pop()
      val t = (code >>> 32).toInt
      val idx = (code & 0xffffffffL).toInt
      if (idx < nU) {
        val u = idx
        // u removed at t: decrement surviving m-neighbours (lines 18-22)
        val nb = g.gammaU(t)(u); var i = 0
        while (i < nb.length) {
          val v = nb(i)
          if (dV(t)(v) > 0) { if (dV(t)(v) - 1 < p.tauU) pruneV(t, v) else dV(t)(v) -= 1 }
          i += 1
        }
        // survival bookkeeping (lines 23-29); u needs s ≥ 1, trivially held
        if (sU(u) > 0) sU(u) -= 1
      } else {
        val v = idx - nU
        val nb = g.gammaV(t)(v); var i = 0
        while (i < nb.length) {
          val u = nb(i)
          if (dU(t)(u) > 0) { if (dU(t)(u) - 1 < p.tauV) pruneU(t, u) else dU(t)(u) -= 1 }
          i += 1
        }
        if (sV(v) > 0) {
          sV(v) -= 1
          if (sV(v) < p.lambda) {
            sV(v) = 0
            var tt = 0
            while (tt < nT) { pruneV(tt, v); tt += 1 }
          }
        }
      }
    }

    // initial violations (lines 6-11)
    var t = 0
    while (t < nT) {
      var u = 0
      while (u < nU) { if (dU(t)(u) > 0 && dU(t)(u) < p.tauV) pruneU(t, u); u += 1 }
      var v = 0
      while (v < nV) { if (dV(t)(v) > 0 && (dV(t)(v) < p.tauU || sV(v) < p.lambda)) pruneV(t, v); v += 1 }
      t += 1
    }
    drain()

    g.internalEdges.filter { case (u, v, tt) => dU(tt)(u) > 0 && dV(tt)(v) > 0 }
  }

  /** The (τ_V, τ_U, λ)-core as a compacted graph (original labels kept). */
  def apply(g: TemporalBipartiteGraph, p: Params): TemporalBipartiteGraph = {
    val kept = filterEdges(g, p)
    TemporalBipartiteGraph.fromEdges(
      kept.toSeq.map { case (u, v, t) => (g.uLabels(u), g.vLabels(v), g.tLabels(t)) }
    )
  }
}
