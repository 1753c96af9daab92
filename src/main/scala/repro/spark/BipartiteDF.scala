package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** DataFrame (Catalyst) computations over a temporal bipartite edge table
  * with columns `(u: long, v: long, t: long)`. Each query-shaped result here
  * is oracle-checked against DuckDB in the test suite.
  */
object BipartiteDF {

  /** The input contract of every ingest path: columns `u`, `v`, `t` cast to
    * long. A null id fails the query with an error that names its column.
    */
  def project(edges: DataFrame): DataFrame =
    edges.select(Seq("u", "v", "t").map { c =>
      coalesce(col(c).cast("long"), raise_error(lit(s"edge table: null value in column $c"))).as(c)
    }: _*)

  /** Normalizes an edge DataFrame: [[project]], then duplicates dropped (an
    * interaction (u, v, t) is a set element, Def. 2.1).
    */
  def normalize(edges: DataFrame): DataFrame = project(edges).distinct()

  /** Static bipartite projection: distinct (u, v). */
  def staticEdges(edges: DataFrame): DataFrame =
    normalize(edges).select("u", "v").distinct()

  /** Momentary degrees δ(v, t) of the V side: (v, t, mdeg). */
  def mDegV(edges: DataFrame): DataFrame =
    normalize(edges).groupBy("v", "t").agg(count(lit(1)).as("mdeg"))

  /** Momentary degrees δ(u, t) of the U side: (u, t, mdeg). */
  def mDegU(edges: DataFrame): DataFrame =
    normalize(edges).groupBy("u", "t").agg(count(lit(1)).as("mdeg"))

  /** Lemma 3.2's T(v): for each v, the timestamps with δ(v,t) ≥ τ_U, plus
    * the count |T(v)| — the per-vertex input to the candidate filter.
    */
  def tSets(edges: DataFrame, tauU: Int): DataFrame =
    mDegV(edges).filter(col("mdeg") >= tauU).groupBy("v").agg(count(lit(1)).as("tcount"))

  /** Support timestamps (Def. 2.4) of a fixed vertex set `vs ⊆ V`: the
    * timestamps where ≥ τ_U vertices of U are connected to *all* of `vs`.
    * Output: single column `t`.
    */
  def supportTimestamps(edges: DataFrame, vs: Seq[Long], tauU: Int): DataFrame = {
    val e = normalize(edges).filter(col("v").isin(vs: _*))
    e.groupBy("t", "u")
      .agg(countDistinct("v").as("nv"))
      .filter(col("nv") === vs.size)
      .groupBy("t")
      .agg(count(lit(1)).as("nu"))
      .filter(col("nu") >= tauU)
      .select("t")
  }

  /** Dataset-statistics row for Table 2: |U|, |V|, |E|, |T|. */
  def stats(edges: DataFrame): (Long, Long, Long, Long) = {
    val e = normalize(edges).cache()
    val row = e.agg(
      countDistinct("u").as("nu"),
      countDistinct("v").as("nv"),
      count(lit(1)).as("ne"),
      countDistinct("t").as("nt"),
    ).head()
    val out = (row.getLong(0), row.getLong(1), row.getLong(2), row.getLong(3))
    e.unpersist()
    out
  }
}
