package repro.core

import repro.graph.SortedOps

import scala.collection.mutable

/** The interface of the three search engines (BK-ALG, FilterV, VFree): a run
  * fills `stats` and returns the MFGs in original-label space.
  *
  * An engine searches the graph it is given. Graph filtering, the V-side
  * reorder, timing and the edge counters are applied by [[Enumerators]].
  */
abstract class Engine(vLabels: Array[Long]) {
  val stats = new EnumStats

  /** MFGs found so far, as ascending internal V ids. */
  protected val results = mutable.ArrayBuffer.empty[Array[Int]]

  /** The whole search; appends every MFG to `results`. */
  protected def search(): Unit

  /** Runs the search; returns MFGs in original-label space. */
  final def run(): Set[Set[Long]] = {
    search()
    results.iterator.map(labelled).toSet
  }

  /** Internal V ids -> original labels. */
  protected final def labelled(vs: Array[Int]): Set[Long] = vs.iterator.map(vLabels(_)).toSet

  /** Maximality by comparison (BK-ALG, FilterV-VM): records a terminal set
    * unless a recorded result contains it. Complete because the DFS visits
    * ascending id sequences in lexicographic order, so the MFG containing a
    * non-maximal terminal set is always recorded first (DESIGN.md §6).
    */
  protected final def recordIfMaximal(vs: Array[Int]): Unit =
    if (!results.exists(r => SortedOps.subsetOf(vs, r))) results += vs
}
