package repro.perfbench

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core._
import repro.graph.TemporalBipartiteGraph
import repro.perfbench.Stats._
import repro.perfbench.Workloads._
import repro.spark.{BipartiteDF, DistributedMfg, GFCoreDF}

/** Runs one workload: set-up, warm-up, measured repetitions, checks.
  *
  * Every call into the program is a public entry point; correctness checks
  * and heap probes run outside the timed intervals.
  */
final class Bench(spark: SparkSession, wl: Workload, cfg: Main.Config) {
  import Bench._

  private val spec = wl.spec
  private val seed = cfg.seed.getOrElse(spec.seed)
  private val relabel = Relabel(seed, spec.seed)
  private val p = spec.defaults
  private val gate = new Gate
  private val started = System.nanoTime()
  /** Counters that must repeat exactly across repetitions and runs. */
  private val counters = mutable.LinkedHashMap.empty[String, Long]
  /** Digest of the first VFree MFG set; every later set must match it. */
  private var refDigest: String = _
  private var sizes = ""

  def run(): String = {
    phase("spark started")
    val (edges, setupTimes) = setup()
    phase("set-up done")
    warmUp(edges)
    phase("warm-up done")
    val metrics = if (cfg.trace) traced(edges) else untraced(edges, setupTimes)
    phase("measured")
    pinCheck()
    report(metrics)
  }

  private def phase(what: String): Unit = println(f"[${secondsSince(started)}%7.2f s] $what")

  // ------------------------------------------------------------------ set-up

  /** Edge generation through normalize, cache and count, `SetupReps` times;
    * the last cached table is the input of every measured call.
    */
  private def setup(): (DataFrame, Seq[Double]) = {
    var df: DataFrame = null
    val times = (0 until SetupReps).map { _ =>
      if (df != null) df.unpersist(blocking = true)
      val t0 = System.nanoTime()
      df = BipartiteDF.normalize(relabel(spec.edges(spark))).cache()
      df.count()
      secondsSince(t0)
    }
    (df, times)
  }

  private def warmUp(edges: DataFrame): Unit = (0 until wl.warmUps).foreach { _ =>
    val g = TemporalBipartiteGraph.fromDF(edges)
    Enumerators.vFree(g, p, budgetMs = BudgetMs)
    wl.query match {
      case Distributed  => DistributedMfg.runToSets(spark, edges, p)
      case PaperEngines =>
        Enumerators.filterV(g, p, budgetMs = WarmUpBudgetMs)
        // BK-ALG+ is timed only in the traced pass.
        if (cfg.trace) Enumerators.bkAlgPlus(g, p, WarmUpBudgetMs)
    }
  }

  /** Whether another repetition fits: measure at least `--seconds` of work
    * and `minReps` repetitions, but never start one that could push the run
    * past its time limit.
    */
  private def another(reps: Int, measured: Double, lastRep: Double, minReps: Int): Boolean =
    reps == 0 || ((measured < cfg.seconds || reps < minReps) && secondsSince(started) + 2 * lastRep < RunLimitS)

  // -------------------------------------------------------------- untraced

  private def untraced(edges: DataFrame, setupTimes: Seq[Double]): Metrics = {
    val local, query, heap = mutable.ArrayBuffer.empty[Double]
    var reps = 0
    var measured = 0.0
    var lastRep = 0.0
    while (another(reps, measured, lastRep, wl.minReps)) {
      val t0 = System.nanoTime()
      var last: Option[LocalRep] = None
      for (_ <- 1 to wl.localCalls) {
        last.foreach(_.live.clear())
        last = localRep(edges)
        last.foreach(r => local += r.fromDfS + r.vFreeS)
      }
      last.foreach { r =>
        // FilterV needs the graph, so the heap is read after it;
        // Spark frees a distributed query's blocks asynchronously, so the
        // heap is read before that query runs.
        val q = wl.query match {
          case PaperEngines =>
            val q = filterV(r.live.graph)
            heap += retained(r.live)._1
            q
          case Distributed =>
            heap += retained(r.live)._1
            distributed(edges)
        }
        q.foreach(query += _)
      }
      reps += 1
      lastRep = secondsSince(t0)
      measured += lastRep
    }
    if (local.isEmpty || query.isEmpty)
      throw new IllegalStateException("no repetition completed: " + gate.messages.mkString("; "))
    if (wl.query == PaperEngines) bkAlgCheck(edges)
    val m = new Metrics
    m.median("setup_s", "s", setupTimes)
    m.median("mfg_local_s", "s", local.toSeq)
    m.median("query_s", "s", query.toSeq)
    m.median("heap_mb", "MB", heap.toSeq)
    m
  }

  /** The graph and MFG set of one local repetition, held only here so that
    * dropping them frees exactly their retained heap.
    */
  private final class Live(var graph: TemporalBipartiteGraph, var results: Set[Set[Long]]) {
    def clear(): Unit = { graph = null; results = null }
  }

  private final case class LocalRep(fromDfS: Double, vFreeS: Double, live: Live)

  /** `TemporalBipartiteGraph.fromDF` then `Enumerators.vFree`, from a
    * collected heap (as the traced pass starts) so that earlier repetitions'
    * garbage is not charged to this one.
    */
  private def localRep(edges: DataFrame): Option[LocalRep] = {
    System.gc()
    gate.op {
      val t0 = System.nanoTime()
      val g = TemporalBipartiteGraph.fromDF(edges)
      val fromDfS = secondsSince(t0)
      val t1 = System.nanoTime()
      val o = Enumerators.vFree(g, p, budgetMs = BudgetMs)
      val vFreeS = secondsSince(t1)
      (LocalRep(fromDfS, vFreeS, new Live(g, o.results.orNull)), o.stats)
    }.map { case (id, (rep, stats)) =>
      val g = rep.live.graph
      gate.check(id, rep.live.results != null, s"VFree hit its $BudgetMs ms budget") && {
        record(id, "graph.edges", g.temporalEdgeCount)
        record(id, "gfcore.edges_kept", stats.filteredEdges)
        record(id, "vfree.nodes", stats.nodes)
        mfgSet(id, "VFree", rep.live.results, g)
      }
      rep
    }
  }

  /** (graph and MFG set, graph alone) retained heap in MB, read by dropping
    * the MFG set and then the graph between full collections.
    */
  private def retained(live: Live): (Double, Double) = {
    val both = Mem.usedAfterGc()
    live.results = null
    val graphOnly = Mem.usedAfterGc()
    live.graph = null
    val none = Mem.usedAfterGc()
    ((both - none) / Mem.MB, (graphOnly - none) / Mem.MB)
  }

  /** `DistributedMfg.runToSets` on the cached edges; its time (s). */
  private def distributed(edges: DataFrame): Option[Double] =
    gate.op(timed(DistributedMfg.runToSets(spark, edges, p))).map { case (id, (s, sets)) =>
      sameAsReference(id, "DistributedMfg", sets)
      s
    }

  /** FilterV on the loaded graph; its time (s). */
  private def filterV(g: TemporalBipartiteGraph): Option[Double] =
    gate.op(timed(Enumerators.filterV(g, p, budgetMs = BudgetMs))).map { case (id, (s, o)) =>
      checkFilterV(id, o)
      s
    }

  /** BK-ALG+ once, untimed, on a freshly loaded graph. A call takes about
    * 6 s, too long to sample several times a run, so its time is measured
    * only by the traced run (`bkalg_plus_s`).
    */
  private def bkAlgCheck(edges: DataFrame): Unit = {
    val g = TemporalBipartiteGraph.fromDF(edges)
    gate.op(Enumerators.bkAlgPlus(g, p, BudgetMs)).foreach { case (id, o) => checkBkAlg(id, o) }
  }

  private def checkFilterV(id: Int, o: Enumerators.Outcome): Boolean =
    outcome(id, o) && record(id, "filterv.nodes", o.stats.nodes) &&
      record(id, "filterv.freq_checks", o.stats.freqChecks) && sameAsReference(id, "FilterV", o.results.get)

  private def checkBkAlg(id: Int, o: Enumerators.Outcome): Boolean =
    outcome(id, o) && record(id, "bkalg.nodes", o.stats.nodes) &&
      record(id, "bkalg.freq_checks", o.stats.freqChecks) && sameAsReference(id, "BK-ALG+", o.results.get)

  // ---------------------------------------------------------------- traced

  /** Brackets each traced pass over every layer the workload runs with two
    * untraced local repetitions, the baseline for the tracing overhead (two,
    * so that the JIT's progress between them cancels) and the graph's
    * retained heap. Per-layer values are medians over the passes.
    */
  private def traced(edges: DataFrame): Metrics = {
    val passes = mutable.ArrayBuffer.empty[Map[String, Double]]
    val untracedLocal, graphMb = mutable.ArrayBuffer.empty[Double]
    val tracers = mutable.ArrayBuffer.empty[Tracer]
    var reps = 0
    var measured = 0.0
    var lastRep = 0.0
    while (another(reps, measured, lastRep, minReps = 1)) {
      val t0 = System.nanoTime()
      def untracedLocalRep(): Unit = localRep(edges).foreach { r =>
        untracedLocal += r.fromDfS + r.vFreeS
        graphMb += retained(r.live)._2
      }
      untracedLocalRep()
      val tr = new Tracer
      tracers += tr
      tracedPass(tr, edges).foreach(passes += _)
      untracedLocalRep()
      reps += 1
      lastRep = secondsSince(t0)
      measured += lastRep
    }
    if (passes.isEmpty || untracedLocal.isEmpty)
      throw new IllegalStateException("no traced pass completed: " + gate.messages.mkString("; "))
    val m = new Metrics
    val overhead = median(passes.map(_("trace.mfg_local_s")).toSeq) - median(untracedLocal.toSeq)
    PerLayer.foreach { case (name, unit) =>
      val v = name match {
        case "graph.retained_mb" => median(graphMb.toSeq)
        case "trace.overhead_s"  => overhead
        case _                   => median(passes.map(_.getOrElse(name, 0.0)).toSeq)
      }
      m.put(name, v, unit, passes.length)
    }
    println(f"untraced mfg_local_s samples: ${untracedLocal.map(s => f"$s%.4f").mkString(" ")}")
    printSpans(tracers.toSeq, median(untracedLocal.toSeq))
    m
  }

  /** One traced pass. The local pipeline mirrors `fromDF` (collect, then
    * `fromEdges`) and `Enumerators.vFree` (GC, `GFCore.apply` as
    * `filterEdges` then `fromEdges`, `reorderByDegree`, `VFree.run`), so
    * each public layer call gets its own span.
    */
  private def tracedPass(tr: Tracer, edges: DataFrame): Option[Map[String, Double]] = {
    val out = mutable.Map.empty[String, Double]
    System.gc()
    val local = gate.op(tr.span("mfg_local") {
      val g = tr.span("graph.fromDF") {
        val rows = tr.span("graph.collect") {
          edges.selectExpr("cast(u as long) as u", "cast(v as long) as v", "cast(t as long) as t").collect()
        }
        tr.span("graph.build") {
          TemporalBipartiteGraph.fromEdges(rows.map(r => (r.getLong(0), r.getLong(1), r.getLong(2))))
        }
      }
      tr.span("enumerators.vFree") {
        tr.span("vfree.gc")(System.gc())
        val (kept, fg) = tr.span("gfcore.apply") {
          val kept = tr.span("gfcore.filter")(GFCore.filterEdges(g, p))
          (kept, tr.span("gfcore.rebuild") {
            TemporalBipartiteGraph.fromEdges(kept.toSeq.map { case (u, v, t) => (g.uLabels(u), g.vLabels(v), g.tLabels(t)) })
          })
        }
        val rg = tr.span("reorder")(Enumerators.reorderByDegree(fg))
        tr.span("vfree.search") {
          val alg = new VFree(rg, p, Deadline.ms(BudgetMs))
          val res = alg.run()
          (g, kept.length.toLong, alg.stats, res)
        }
      }
    })
    val ok = local.exists { case (id, (g, kept, stats, res)) =>
      out ++= Seq(
        "graph.collect_s" -> tr.seconds("graph.collect"),
        "graph.build_s" -> tr.seconds("graph.build"),
        "graph.alloc_mb" -> tr.allocMb("graph.fromDF"),
        "graph.edges" -> g.temporalEdgeCount.toDouble,
        "gfcore.filter_s" -> tr.seconds("gfcore.filter"),
        "gfcore.rebuild_s" -> (tr.seconds("gfcore.apply") - tr.seconds("gfcore.filter")),
        "gfcore.edges_kept" -> kept.toDouble,
        "gfcore.prune_ratio" -> (1.0 - kept.toDouble / g.temporalEdgeCount),
        "gfcore.alloc_mb" -> tr.allocMb("gfcore.apply"),
        "reorder_s" -> tr.seconds("reorder"),
        "reorder.alloc_mb" -> tr.allocMb("reorder"),
        "vfree.search_s" -> tr.seconds("vfree.search"),
        "vfree.cm_s" -> stats.cmNanos / 1e9,
        "vfree.nodes" -> stats.nodes.toDouble,
        "vfree.alloc_mb" -> tr.allocMb("vfree.search"),
        "mfg.count" -> res.size.toDouble,
        "trace.mfg_local_s" -> tr.seconds("mfg_local"),
      )
      record(id, "graph.edges", g.temporalEdgeCount) && record(id, "gfcore.edges_kept", kept) &&
        record(id, "vfree.nodes", stats.nodes) && mfgSet(id, "traced VFree", res, g) &&
        (wl.query match {
          case PaperEngines => tracedPaperEngines(tr, g, out)
          case Distributed  => tracedDistributed(tr, edges, out)
        })
    }
    if (ok) Some(out.toMap) else None
  }

  private def tracedPaperEngines(tr: Tracer, g: TemporalBipartiteGraph, out: mutable.Map[String, Double]): Boolean = {
    val fv = gate.op(tr.span("filterv")(Enumerators.filterV(g, p, budgetMs = BudgetMs))).exists { case (id, o) =>
      out ++= Seq(
        "filterv_s" -> tr.seconds("filterv"),
        "filterv.cm_s" -> o.stats.cmNanos / 1e9,
        "filterv.nodes" -> o.stats.nodes.toDouble,
        "filterv.freq_checks" -> o.stats.freqChecks.toDouble,
        "filterv.cm_share" -> o.stats.cmShare,
      )
      checkFilterV(id, o)
    }
    val bk = gate.op(tr.span("bkalg_plus")(Enumerators.bkAlgPlus(g, p, BudgetMs))).exists { case (id, o) =>
      out ++= Seq(
        "bkalg_plus_s" -> tr.seconds("bkalg_plus"),
        "bkalg.nodes" -> o.stats.nodes.toDouble,
        "bkalg.freq_checks" -> o.stats.freqChecks.toDouble,
      )
      checkBkAlg(id, o)
    }
    fv && bk
  }

  private lazy val sparkCounters = new SparkCounters(spark.sparkContext)

  /** `DistributedMfg.run` as a whole, then its layers called one by one:
    * `GFCoreDF` (with Spark counters), `fromDF` plus reorder on the pruned
    * edges, and `VFree.runSeed` per seed on the driver.
    */
  private def tracedDistributed(tr: Tracer, edges: DataFrame, out: mutable.Map[String, Double]): Boolean = {
    val whole = gate.op(tr.span("dist.run")(DistributedMfg.runToSets(spark, edges, p))).exists { case (id, sets) =>
      sameAsReference(id, "DistributedMfg", sets)
    }
    val (jobs0, tasks0, bytes0) = sparkCounters.snapshot()
    val layers = gate.op {
      val (pruned, kept) = tr.span("gfcoredf") {
        val df = GFCoreDF(edges, p)
        (df, df.count())
      }
      val (jobs1, tasks1, bytes1) = sparkCounters.snapshot()
      val rg = tr.span("dist.collect")(Enumerators.reorderByDegree(TemporalBipartiteGraph.fromDF(pruned)))
      val seeds = tr.span("dist.seeds") {
        val engine = new VFree(rg, p, Deadline.unlimited)
        (0 until rg.nV).map(s => tr.span("seed")(engine.runSeed(s)))
      }
      (kept, (jobs1 - jobs0, tasks1 - tasks0, bytes1 - bytes0), rg, seeds)
    }
    whole && layers.exists { case (id, (kept, (jobs, tasks, bytes), rg, seeds)) =>
      val seedMs = tr.durationsMs("seed")
      val seedSum = seedMs.sum
      out ++= Seq(
        "mfg_dist_s" -> tr.seconds("dist.run"),
        "gfcoredf_s" -> tr.seconds("gfcoredf"),
        "gfcoredf.edges_kept" -> kept.toDouble,
        "gfcoredf.spark_jobs" -> jobs.toDouble,
        "gfcoredf.spark_tasks" -> tasks.toDouble,
        "gfcoredf.shuffle_mb" -> bytes / Mem.MB,
        "dist.collect_s" -> tr.seconds("dist.collect"),
        "dist.broadcast_mb" -> serializedBytes(rg) / Mem.MB,
        "dist.seed_stage_s" -> (tr.seconds("dist.run") - tr.seconds("gfcoredf") - tr.seconds("dist.collect")),
        "seed.count" -> seedMs.length.toDouble,
        "seed.sum_ms" -> seedSum,
        "seed.max_ms" -> seedMs.max,
        "seed.p50_ms" -> median(seedMs),
        "seed.max_share" -> seedMs.max / seedSum,
      )
      println("slowest seeds (label: ms): " + seedMs.zipWithIndex.sortBy(-_._1).take(5)
        .map { case (ms, s) => f"${rg.vLabels(s)}: $ms%.2f" }.mkString(", "))
      record(id, "gfcoredf.edges_kept", kept) &&
        gate.check(id, kept == counters("gfcore.edges_kept"),
          s"GFCoreDF kept $kept edges, GFCore kept ${counters("gfcore.edges_kept")}") &&
        sameAsReference(id, "per-seed VFree", seeds.flatten.toSet)
    }
  }

  /** Span totals and self times, averaged over the traced passes, and how
    * the local spans account for the untraced `mfg_local_s`.
    */
  private def printSpans(tracers: Seq[Tracer], untracedLocal: Double): Unit = {
    val n = tracers.length.toDouble
    val names = tracers.flatMap(_.all.map(_.name)).distinct
    println(f"spans, mean per traced pass over $n%.0f passes:")
    println(f"  ${"span"}%-18s ${"calls"}%8s ${"total_s"}%10s ${"self_s"}%10s ${"alloc_mb"}%10s")
    for (name <- names) {
      val ss = tracers.flatMap(t => t.all.filter(_.name == name).map(s => (s, t.selfNanos(s))))
      println(f"  $name%-18s ${ss.length / n}%8.1f ${ss.map(_._1.nanos).sum / n / 1e9}%10.4f " +
        f"${ss.map(_._2).sum / n / 1e9}%10.4f ${ss.map(_._1.allocBytes).sum / n / Mem.MB}%10.1f")
    }
    val localSelf = median(tracers.flatMap(t => t.roots.filter(_.name == "mfg_local").map(t.treeSelfNanos(_) / 1e9)))
    println(f"local pipeline: span self times sum to $localSelf%.4f s = untraced mfg_local_s " +
      f"$untracedLocal%.4f s + tracing overhead ${localSelf - untracedLocal}%.4f s")
    if (wl.query == Distributed) {
      def mean(name: String) = tracers.map(_.seconds(name)).sum / n
      println(f"distributed pipeline: dist.run ${mean("dist.run")}%.4f s = gfcoredf ${mean("gfcoredf")}%.4f s + " +
        f"dist.collect ${mean("dist.collect")}%.4f s + seed stage (the rest) " +
        f"${mean("dist.run") - mean("gfcoredf") - mean("dist.collect")}%.4f s; per-seed VFree on the driver " +
        f"sums to ${mean("seed")}%.4f s")
    }
  }

  // ---------------------------------------------------------------- checks

  private def outcome(id: Int, o: Enumerators.Outcome): Boolean =
    gate.check(id, !o.timedOut, s"${o.name} hit its $BudgetMs ms budget")

  /** A deterministic counter must equal its first value in this run. */
  private def record(id: Int, key: String, value: Long): Boolean = counters.get(key) match {
    case None    => counters(key) = value; true
    case Some(v) => gate.check(id, v == value, s"counter $key changed: $v then $value")
  }

  /** The first MFG set is checked against the input graph; later ones must
    * equal it.
    */
  private def mfgSet(id: Int, engine: String, sets: Set[Set[Long]], g: TemporalBipartiteGraph): Boolean =
    if (refDigest == null) {
      refDigest = canonicalDigest(sets)
      sizes = s"|U|=${g.nU} |V|=${g.nV} |E|=${g.temporalEdgeCount} |T|=${g.nT}"
      record(id, "mfg.count", sets.size.toLong)
      val bad = sets.filterNot(s => valid(s, g))
      gate.check(id, bad.isEmpty, s"$engine returned ${bad.size} groups that are undersized or not frequent, " +
        s"e.g. ${bad.headOption.map(_.toSeq.sorted.mkString("{", ",", "}")).getOrElse("")}")
    } else sameAsReference(id, engine, sets)

  /** Digest of the MFG set in the stand-in's own V labels, the same for
    * every seed.
    */
  private def canonicalDigest(sets: Set[Set[Long]]): String = digest(sets.map(_.map(relabel.originalV)))

  /** |S| >= tau_V and S is frequent on the input graph (naive check). */
  private def valid(s: Set[Long], g: TemporalBipartiteGraph): Boolean = {
    val ids = s.toArray.map(l => java.util.Arrays.binarySearch(g.vLabels, l)).sorted
    s.size >= p.tauV && ids.forall(_ >= 0) && Frequency.NaiveFreq.isFrequent(g, ids, p.tauU, p.lambda)
  }

  private def sameAsReference(id: Int, engine: String, sets: Set[Set[Long]]): Boolean =
    if (refDigest == null) gate.check(id, ok = false, s"$engine has no VFree result to compare with")
    else {
      val d = canonicalDigest(sets)
      gate.check(id, d == refDigest,
        s"$engine returned ${sets.size} MFGs (digest $d); VFree ${counters("mfg.count")} (digest $refDigest)")
    }

  /** Every seed must give the workload's pinned result. */
  private def pinCheck(): Unit = if (refDigest != null) {
    val actual = counters.map { case (k, v) => k -> v.toString }.toMap + ("mfg.digest" -> refDigest)
    println("counters: " + actual.toSeq.sortBy(_._1).map { case (k, v) => s"$k=$v" }.mkString(" "))
    for ((k, want) <- wl.pins; got = actual.getOrElse(k, "nothing") if got != want)
      gate.failAll(s"pinned $k=$want, got $got")
  }

  // ---------------------------------------------------------------- output

  private def report(m: Metrics): String = {
    println("env " + Json.obj(Seq(
      "nproc" -> Json.num(Runtime.getRuntime.availableProcessors.toDouble),
      "spark_master" -> Json.str(spark.sparkContext.master),
      "shuffle_partitions" -> Json.str(spark.conf.get("spark.sql.shuffle.partitions")),
      "xmx_mb" -> Json.num(Runtime.getRuntime.maxMemory / Mem.MB),
      "jdk" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.version")}"),
      "commit" -> Json.str(sys.props.getOrElse("perfbench.commit", "unknown")),
      "sources_sha256" -> Json.str(sys.props.getOrElse("perfbench.sources", "unknown")),
    )))
    println(s"workload ${wl.name}: ${spec.name} (generator seed ${spec.seed}, scale 1/${spec.scale}) " +
      s"seed=$seed relabel=$relabel " +
      s"(tauU, tauV, lambda)=(${p.tauU}, ${p.tauV}, ${p.lambda}) $sizes query=${wl.query}")
    m.print()
    gate.messages.foreach(msg => println(s"FAILED: $msg"))
    println(s"operations: attempted=${gate.attempted} failed=${gate.failed}")
    Json.obj(Seq(
      "correct" -> (gate.failed == 0).toString,
      "attempted" -> gate.attempted.toString,
      "failed" -> gate.failed.toString,
      "metrics" -> m.json,
    ))
  }
}

object Bench {
  /** Time budget of every local engine call (VFree, FilterV, BK-ALG+). */
  val BudgetMs = 60000L
  /** Budget of the warm-up's FilterV and BK-ALG+ calls: long enough for
    * the JIT to compile their searches, short of a whole call.
    */
  val WarmUpBudgetMs = 3000L
  val SetupReps = 5
  /** A run starts no repetition that could end past this (s). */
  val RunLimitS = 150.0

  /** The `--trace 1` metrics; layers a workload does not run report 0. */
  val PerLayer: Seq[(String, String)] = Seq(
    "graph.collect_s" -> "s", "graph.build_s" -> "s", "graph.alloc_mb" -> "MB",
    "graph.retained_mb" -> "MB", "graph.edges" -> "count",
    "gfcore.filter_s" -> "s", "gfcore.rebuild_s" -> "s", "gfcore.edges_kept" -> "count",
    "gfcore.prune_ratio" -> "ratio", "gfcore.alloc_mb" -> "MB",
    "reorder_s" -> "s", "reorder.alloc_mb" -> "MB",
    "vfree.search_s" -> "s", "vfree.cm_s" -> "s", "vfree.nodes" -> "count",
    "vfree.alloc_mb" -> "MB", "mfg.count" -> "count",
    "filterv_s" -> "s", "filterv.cm_s" -> "s", "filterv.nodes" -> "count",
    "filterv.freq_checks" -> "count", "filterv.cm_share" -> "ratio",
    "bkalg_plus_s" -> "s", "bkalg.nodes" -> "count", "bkalg.freq_checks" -> "count",
    "mfg_dist_s" -> "s", "gfcoredf_s" -> "s", "gfcoredf.edges_kept" -> "count",
    "gfcoredf.spark_jobs" -> "count", "gfcoredf.spark_tasks" -> "count", "gfcoredf.shuffle_mb" -> "MB",
    "dist.collect_s" -> "s", "dist.broadcast_mb" -> "MB", "dist.seed_stage_s" -> "s",
    "seed.count" -> "count", "seed.sum_ms" -> "ms", "seed.max_ms" -> "ms", "seed.p50_ms" -> "ms",
    "seed.max_share" -> "ratio",
    "trace.mfg_local_s" -> "s", "trace.overhead_s" -> "s",
  )
}
