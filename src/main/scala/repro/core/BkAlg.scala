package repro.core

import repro.graph.{SortedOps, TemporalBipartiteGraph}

/** Baseline BK-ALG (Section 3, "Baseline method").
  *
  * Directly extends the Bron-Kerbosch framework: maintain (U_S, V_S, C_V),
  * expand V_S one candidate at a time, check the frequency constraint with
  * the naive per-timestamp intersection, and verify maximality by comparing
  * a terminal set against the results found so far
  * ([[Engine.recordIfMaximal]]; its completeness rests on the lexicographic
  * DFS order, and the brute-force oracle in the tests pins it).
  *
  * BK-ALG+ (the variant actually benchmarked in the paper) is BkAlg run on
  * the GFCore-filtered graph — see [[Enumerators.bkAlgPlus]].
  */
final class BkAlg(g: TemporalBipartiteGraph, p: Params, deadline: Deadline) extends Engine(g.vLabels) {

  // V_S along a branch is ascending (candidates processed in id order)
  private val vsStack = new Array[Int](math.max(1, g.nV))

  private def enum(us: Array[Int], vsLen: Int, cv: Array[Int], from: Int): Unit = {
    deadline.check()
    stats.nodes += 1
    var extended = false
    var i = from
    while (i < cv.length) {
      val v = cv(i)
      val usv = SortedOps.intersect(us, g.vAdj(v))
      if (usv.length >= p.tauU) {
        stats.freqChecks += 1
        val vs2 = java.util.Arrays.copyOf(vsStack, vsLen + 1)
        vs2(vsLen) = v
        if (Frequency.NaiveFreq.isFrequent(g, vs2, p.tauU, p.lambda)) {
          extended = true
          vsStack(vsLen) = v
          enum(usv, vsLen + 1, cv, i + 1)
        }
      }
      i += 1
    }
    if (!extended && vsLen >= p.tauV && us.length >= p.tauU) {
      val t0 = System.nanoTime()
      recordIfMaximal(java.util.Arrays.copyOf(vsStack, vsLen))
      stats.cmNanos += System.nanoTime() - t0
    }
  }

  protected def search(): Unit = enum(Array.range(0, g.nU), 0, Array.range(0, g.nV), 0)
}
