package repro.core

import repro.graph.TemporalBipartiteGraph

/** Facade wiring the paper's algorithm variants exactly as benchmarked in
  * Section 5: every variant except VFree- gets the GFCore graph filter;
  * VFree gets the ascending-structural-degree ID reorder unless disabled.
  *
  * This is the one place that filters, reorders, times a run and fills the
  * edge counters; the engines only search.
  */
object Enumerators {

  /** Outcome of one enumeration run. `results` is None on time-budget
    * exhaustion (the paper's INF); `stats` then holds the counters reached.
    */
  final case class Outcome(name: String, results: Option[Set[Set[Long]]], stats: EnumStats) {
    def timedOut: Boolean = results.isEmpty
    def count: Int = results.map(_.size).getOrElse(-1)
  }

  /** The search a variant runs on the (filtered) graph. */
  private sealed trait Search
  private case object Bk extends Search
  private final case class Fv(useCandFilter: Boolean, useArrayVerify: Boolean) extends Search
  private case object Vf extends Search

  private final case class Variant(name: String, graphFilter: Boolean, search: Search)

  /** The named variants of the paper's experimental section. */
  private val variants: Seq[Variant] = Seq(
    Variant("BK-ALG+", graphFilter = true, Bk),
    Variant("FilterV-", graphFilter = true, Fv(useCandFilter = false, useArrayVerify = false)),
    Variant("FilterV-FR", graphFilter = true, Fv(useCandFilter = false, useArrayVerify = true)),
    Variant("FilterV-VM", graphFilter = true, Fv(useCandFilter = true, useArrayVerify = false)),
    Variant("FilterV", graphFilter = true, Fv(useCandFilter = true, useArrayVerify = true)),
    Variant("VFree-", graphFilter = false, Vf),
    Variant("VFree", graphFilter = true, Vf),
  )

  val algorithmNames: Seq[String] = variants.map(_.name)

  private def variant(graphFilter: Boolean, search: Search): Variant =
    variants.find(v => v.graphFilter == graphFilter && v.search == search).get

  /** Runs `v` on `g`. The budget covers the graph filter, the reorder and the
    * search; a run that exceeds it keeps the counters it reached.
    */
  private def execute(v: Variant, g: TemporalBipartiteGraph, p: Params,
                      reorder: Boolean, budgetMs: Long): Outcome = {
    System.gc() // reduce cross-run GC interference in benchmarks
    val deadline = Deadline.ms(budgetMs)
    val t0 = System.nanoTime()
    val fg = if (v.graphFilter) GFCore(g, p) else g
    val engine = v.search match {
      case Bk       => new BkAlg(fg, p, deadline)
      case Fv(c, a) => new FilterV(fg, p, c, a, deadline)
      case Vf       => new VFree(if (reorder) reorderByDegree(fg) else fg, p, deadline)
    }
    val results = try Some(engine.run()) catch { case _: TimeBudgetExceeded => None }
    val stats = engine.stats
    stats.totalNanos = System.nanoTime() - t0
    stats.inputEdges = g.temporalEdgeCount
    stats.filteredEdges = fg.temporalEdgeCount
    Outcome(v.name, results, stats)
  }

  /** BK-ALG+ — the BK baseline on the GFCore-filtered graph. */
  def bkAlgPlus(g: TemporalBipartiteGraph, p: Params, budgetMs: Long = 0): Outcome =
    execute(variant(graphFilter = true, Bk), g, p, reorder = false, budgetMs)

  /** FilterV and its ablations (graph filter always applied, as in §5). */
  def filterV(g: TemporalBipartiteGraph, p: Params,
              useCandFilter: Boolean = true, useArrayVerify: Boolean = true,
              budgetMs: Long = 0): Outcome =
    execute(variant(graphFilter = true, Fv(useCandFilter, useArrayVerify)), g, p, reorder = false, budgetMs)

  /** VFree (graph filter + ID reorder by default); `useGraphFilter = false`
    * gives the VFree- ablation of Exp-5, `reorder = false` the Exp-7 one.
    */
  def vFree(g: TemporalBipartiteGraph, p: Params,
            useGraphFilter: Boolean = true, reorder: Boolean = true,
            budgetMs: Long = 0): Outcome =
    execute(variant(useGraphFilter, Vf), g, p, reorder, budgetMs)

  /** Ascending structural-degree relabelling of V (ties by original id). */
  def reorderByDegree(g: TemporalBipartiteGraph): TemporalBipartiteGraph = {
    val perm = Array.range(0, g.nV).sortBy(v => (g.sDegV(v), v))
    g.relabelV(perm)
  }

  /** Dispatch by paper name (bench harness entry point). */
  def run(name: String, g: TemporalBipartiteGraph, p: Params, budgetMs: Long = 0): Outcome =
    variants.find(_.name == name) match {
      case Some(v) => execute(v, g, p, reorder = true, budgetMs)
      case None    => throw new IllegalArgumentException(s"unknown algorithm: $name")
    }
}
