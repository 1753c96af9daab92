package repro.spark

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.core.Params
import repro.graph.TemporalBipartiteGraph

/** Oracle-checked DataFrame queries: every query-shaped result is compared
  * against DuckDB running the equivalent SQL over the same edge table.
  */
class BipartiteDFSpec extends SparkSpec {

  private def edgesDf(seed: Long) = {
    val g = TestGraphs.random(8, 8, 5, 0.4, seed)
    fromTriples(g.labeledEdges.toSeq)
  }

  test("normalize drops duplicate temporal edges") {
    val df = fromTriples(Seq((1L, 2L, 3L), (1L, 2L, 3L), (1L, 2L, 4L)))
    assert(BipartiteDF.normalize(df).count() == 2)
  }

  for (c <- Seq("u", "v", "t")) {
    test(s"a null $c fails the local and the distributed ingest, naming the column") {
      // {(1, 2, 3), (1, null, 3)}, with the null in column c
      val row = Seq(1L, 2L, 3L).map(Option(_))
      val probe = Seq(row, row.updated(Seq("u", "v", "t").indexOf(c), None))
      val df = spark.createDataFrame(probe.map { case Seq(u, v, t) => (u, v, t) }).toDF("u", "v", "t")
      val msg = s"null value in column $c"
      def failure(body: => Any): String = {
        val e = intercept[Exception](body)
        Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString(" | ")
      }
      assert(failure(TemporalBipartiteGraph.fromDF(df)).contains(msg))
      assert(failure(DistributedMfg.runToSets(spark, df, Params(1, 1, 1))).contains(msg))
      assert(failure(BipartiteDF.normalize(df).count()).contains(msg))
    }
  }

  for (seed <- 0 until 4) {
    test(s"staticEdges vs DuckDB (seed $seed)") {
      val e = BipartiteDF.normalize(edgesDf(seed))
      Oracle.assertEquivalent(
        BipartiteDF.staticEdges(e),
        "SELECT DISTINCT u, v FROM edges",
        "edges" -> e)
    }
  }

  for (seed <- 0 until 4) {
    test(s"mDegV vs DuckDB (seed $seed)") {
      val e = BipartiteDF.normalize(edgesDf(seed + 10))
      Oracle.assertEquivalent(
        BipartiteDF.mDegV(e),
        "SELECT v, t, count(*) AS mdeg FROM edges GROUP BY v, t",
        "edges" -> e)
    }
  }

  for (seed <- 0 until 4) {
    test(s"mDegU vs DuckDB (seed $seed)") {
      val e = BipartiteDF.normalize(edgesDf(seed + 20))
      Oracle.assertEquivalent(
        BipartiteDF.mDegU(e),
        "SELECT u, t, count(*) AS mdeg FROM edges GROUP BY u, t",
        "edges" -> e)
    }
  }

  for {
    seed <- 0 until 3
    tauU <- Seq(1, 2)
  } {
    test(s"tSets (Lemma 3.2 input) vs DuckDB (seed $seed, tauU=$tauU)") {
      val e = BipartiteDF.normalize(edgesDf(seed + 30))
      Oracle.assertEquivalent(
        BipartiteDF.tSets(e, tauU),
        s"""SELECT v, count(*) AS tcount FROM (
           |  SELECT v, t, count(*) AS mdeg FROM edges GROUP BY v, t
           |) WHERE mdeg >= $tauU GROUP BY v""".stripMargin,
        "edges" -> e)
    }
  }

  for {
    seed <- 0 until 3
    tauU <- Seq(1, 2)
  } {
    test(s"supportTimestamps (Def. 2.4) vs DuckDB (seed $seed, tauU=$tauU)") {
      val g = TestGraphs.random(8, 8, 5, 0.45, seed + 40)
      val e = fromTriples(g.labeledEdges.toSeq)
      val rng = new scala.util.Random(seed)
      val vs = rng.shuffle(g.vLabels.toList).take(2).sorted
      val inList = vs.map(v => s"'$v'").mkString(", ")
      Oracle.assertEquivalent(
        BipartiteDF.supportTimestamps(e, vs, tauU),
        s"""SELECT t FROM (
           |  SELECT t, count(*) AS nu FROM (
           |    SELECT t, u FROM edges WHERE v IN ($inList)
           |    GROUP BY t, u HAVING count(DISTINCT v) = ${vs.size}
           |  ) GROUP BY t
           |) WHERE nu >= $tauU""".stripMargin,
        "edges" -> BipartiteDF.normalize(e))
    }
  }

  for (seed <- 0 until 3) {
    test(s"supportTimestamps agrees with the in-memory NaiveFreq (seed $seed)") {
      val g = TestGraphs.random(7, 7, 5, 0.5, seed + 60)
      val e = fromTriples(g.labeledEdges.toSeq)
      val vs = Seq(g.vLabels(0), g.vLabels(1))
      val vsIdx = Array(0, 1)
      val fromDf = BipartiteDF.supportTimestamps(e, vs, 2).collect().map(_.getLong(0)).toSet
      val fromLocal = repro.core.BruteForce.supportTimestamps(g, vsIdx, 2)
        .map(t => g.tLabels(t)).toSet
      assert(fromDf == fromLocal)
    }
  }

  test("stats counts distinct vertices, edges and timestamps") {
    val df = fromTriples(Seq((1L, 10L, 0L), (1L, 11L, 0L), (2L, 10L, 1L), (2L, 10L, 1L)))
    assert(BipartiteDF.stats(df) == ((2L, 2L, 3L, 2L)))
  }
}
