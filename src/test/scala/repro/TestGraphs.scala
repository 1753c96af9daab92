package repro

import repro.graph.TemporalBipartiteGraph

/** Deterministic small-graph builders shared by the unit tests. */
object TestGraphs {

  /** Graph from (u, v, t) int triples (labels = the ints themselves). */
  def of(edges: (Int, Int, Int)*): TemporalBipartiteGraph =
    TemporalBipartiteGraph.fromEdges(edges.map { case (u, v, t) => (u.toLong, v.toLong, t.toLong) })

  /** Seeded Erdős–Rényi-style temporal bipartite graph: each (u, v, t)
    * triple appears independently with probability `p`.
    */
  def random(nU: Int, nV: Int, nT: Int, p: Double, seed: Long): TemporalBipartiteGraph = {
    val rng = new scala.util.Random(seed)
    val edges = for {
      u <- 0 until nU
      v <- 0 until nV
      t <- 0 until nT
      if rng.nextDouble() < p
    } yield (u.toLong, v.toLong, t.toLong)
    // guarantee non-emptiness so fromEdges never sees zero vertices
    val all = if (edges.nonEmpty) edges else Seq((0L, 0L, 0L))
    TemporalBipartiteGraph.fromEdges(all)
  }

  /** 3×3 graph with hand-computed MFGs (see EnumeratorsSpec):
    * t=0, t=1: complete 3×3; t=2: {u0,u1} × {v0,v1} complete.
    */
  def tiny: TemporalBipartiteGraph = {
    val full = for { u <- 0 to 2; v <- 0 to 2; t <- 0 to 1 } yield (u, v, t)
    val t2 = for { u <- 0 to 1; v <- 0 to 1 } yield (u, v, 2)
    of(full ++ t2: _*)
  }

  /** A λ cascade over two rounds at (τ_U, τ_V, λ) = (1, 2, 2). v1 lives only
    * at t=1, so λ removes it. Then u1 keeps one neighbour at t=1 and falls
    * below τ_V, which leaves v2 in one snapshot (t=2): λ removes it too. Then
    * u2 falls below τ_V at t=2. The core is {u3, u4} × {v3, v4} × {3, 4}.
    */
  def lambdaCascade: TemporalBipartiteGraph = of(
    (1, 1, 1), (1, 2, 1),
    (2, 2, 2), (2, 3, 2),
    (3, 3, 3), (3, 4, 3), (4, 3, 3), (4, 4, 3),
    (3, 3, 4), (3, 4, 4), (4, 3, 4), (4, 4, 4))

  /** A graph with a planted frequent group {10, 11, 12} (labels) supported
    * by different U sides at t = 0, 2, 4, plus noise.
    */
  def planted: TemporalBipartiteGraph = {
    val group = Seq(10L, 11L, 12L)
    val supports = Seq(
      (Seq(0L, 1L), 0L),
      (Seq(2L, 3L), 2L),
      (Seq(0L, 3L), 4L),
    )
    val plantedEdges = supports.flatMap { case (us, t) => for (u <- us; v <- group) yield (u, v, t) }
    val noise = Seq((5L, 20L, 1L), (6L, 21L, 3L), (5L, 21L, 0L), (6L, 20L, 2L))
    TemporalBipartiteGraph.fromEdges(plantedEdges ++ noise)
  }
}
