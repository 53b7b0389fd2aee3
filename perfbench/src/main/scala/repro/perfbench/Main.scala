package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.util.Random
import scala.util.control.NonFatal
import repro.sparkext.Raven

/** The Raven benchmark: one closed-loop client runs one workload's ops for
  * a fixed time, checks every answer, and prints the end-to-end metrics
  * (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
  * The last line of standard output is the result as one JSON object.
  *
  * {{{
  * Main --workload interactive|model_churn|bulk_score|all --seed N --seconds S --trace 0|1
  *      --work DIR [--out DIR] [--smoke] [--corrupt-reference] [--stamp key=value]...
  * }}}
  */
object Main {

  final case class Config(
      workloads: Seq[String], seed: Long, seconds: Double, trace: Boolean, work: Path, out: Option[Path],
      smoke: Boolean, corrupt: Boolean, stamp: Seq[(String, String)])

  val WorkloadNames: Seq[String] = Seq("interactive", "model_churn", "bulk_score")
  /** The modes whose `rows_per_s` is an end-to-end metric: every mode but the SQL mlp, none of
    * whose ops succeeds on the current program.
    */
  val GatedModes: Seq[String] = Fixture.Modes.filterNot(_ == "mlp")

  final case class Sample(mode: String, shape: String, ns: Long, rows: Long, cause: Option[String], traced: Boolean)

  def parse(args: Array[String]): Config = {
    val kv = mutable.LinkedHashMap[String, String]()
    val flags = mutable.Set[String]()
    val stamp = mutable.ArrayBuffer[(String, String)]()
    var i = 0
    while (i < args.length) {
      args(i) match {
        case f @ ("--smoke" | "--corrupt-reference") => flags += f; i += 1
        case "--stamp" =>
          val Array(k, v) = args(i + 1).split("=", 2)
          stamp += k -> v; i += 2
        case k if k.startsWith("--") && i + 1 < args.length => kv(k) = args(i + 1); i += 2
        case other => throw new IllegalArgumentException(s"unexpected argument '$other'")
      }
    }
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    val wl = need("--workload")
    require(wl == "all" || WorkloadNames.contains(wl), s"unknown workload '$wl'")
    val trace = need("--trace")
    require(trace == "0" || trace == "1", "--trace takes 0 or 1")
    Config(if (wl == "all") WorkloadNames else Seq(wl), need("--seed").toLong, need("--seconds").toDouble,
      trace == "1", Paths.get(need("--work")).toAbsolutePath, kv.get("--out").map(Paths.get(_).toAbsolutePath),
      flags("--smoke"), flags("--corrupt-reference"), stamp.toSeq)
  }

  def main(args: Array[String]): Unit = {
    val code =
      try { run(parse(args)); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
    System.exit(code)
  }

  def run(cfg: Config): Unit = {
    val cores = Runtime.getRuntime.availableProcessors
    val sizes = if (cfg.smoke) Sizes.Tiny else Sizes.Full
    try cfg.workloads.foreach(w => runWorkload(cfg, w, sizes, cores))
    finally Fixture.deleteTree(cfg.work)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
  private def percentile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    s(math.min(s.size - 1, math.ceil(q * s.size).toInt - 1).max(0))
  }

  private def causeOf(e: Throwable): String = {
    var c = e
    while (c.getCause != null && c.getCause != c) c = c.getCause
    val msg = Option(c.getMessage).getOrElse("").linesIterator.nextOption().getOrElse("").take(120)
    s"exception: ${c.getClass.getSimpleName}: $msg"
  }

  private def runWorkload(cfg: Config, name: String, sizes: Sizes, cores: Int): Unit = {
    // ---- set-up, timed from the start of the process (of the workload, after the first one)
    val startMs =
      if (name == cfg.workloads.head) ManagementFactory.getRuntimeMXBean.getStartTime else System.currentTimeMillis()
    val tracer = new Tracer(cfg.trace)
    val codegenLog = CodegenLogCounter.install()
    val fx = Fixture.build(name, sizes, cfg.seed, cores, cfg.work.resolve(name), tracer)
    tracer.enabled = false // the warm-up's spans and counts would be taken for the timed ops'
    val wl = fx.phase("references")(Workloads(name, fx, sizes, tracer))
    fx.phase("warm_up")(wl.warmUp())
    val spark = fx.spark
    val listener = new OpListener
    spark.sparkContext.addSparkListener(listener)

    // ---- timed closed loop; a traced run spends its first half untraced. Each cycle runs every
    // op once, in an order drawn afresh from the seed, so that no op always follows the same
    // one. Each half runs whole cycles, at least one, so that every kind of op is timed equally
    // often.
    val rnd = new Random(cfg.seed)
    var cycle = IndexedSeq.empty[Op]
    val samples = mutable.ArrayBuffer[Sample]()
    val derive = mutable.ArrayBuffer[(Double, Int, Int)]()
    var k = 0
    def loop(seconds: Double, traced: Boolean): Unit = {
      tracer.enabled = traced
      val end = System.nanoTime() + (seconds * 1e9).toLong
      val first = k
      while (k == first || System.nanoTime() < end || (k - first) % wl.ops.size != 0) {
        if (k % wl.ops.size == 0) cycle = rnd.shuffle(wl.ops)
        val op = cycle(k % wl.ops.size)
        if (traced) tracer.op = k
        spark.sparkContext.setLocalProperty(OpListener.OpProperty, if (traced) k.toString else null)
        val before = EngineReading.now(codegenLog)
        val t0 = System.nanoTime()
        val result =
          try Right(tracer.span("bench.op")(op.run()))
          catch { case NonFatal(e) => Left(e) }
        val ns = System.nanoTime() - t0
        if (traced) {
          val d = EngineReading.now(codegenLog).minus(before)
          tracer.count("spark.gc_ms", d.gcMs)
          tracer.count("spark.codegen_compiles", d.compiles)
          tracer.count("spark.codegen_compile_ms", d.compileNs / 1e6)
          tracer.count("spark.codegen_fallbacks", d.fallbacks)
          tracer.count("bench.op_ms", ns / 1e6)
        }
        tracer.op = -1
        val cause = result match {
          case Left(e)      => Some(causeOf(e))
          case Right(check) => tracer.span("bench.check")(check(cfg.corrupt))
        }
        if (traced && Fixture.Families.contains(op.mode)) {
          // The derivation the optimizer performs for this op's predicates, replayed on the base model.
          val mp = fx.pipelines(op.mode)
          try {
            val t = System.nanoTime()
            val (derived, _) = tracer.span("ml.derive")(mp.optimizeFor(op.preds))
            derive += (((System.nanoTime() - t) / 1e6, Fixture.treeNodes(mp.model), Fixture.treeNodes(derived.model)))
          } catch { case NonFatal(_) => tracer.count("ml.derive_failures", 1) }
        }
        samples += Sample(op.mode, op.shape, ns, op.rowsScored, cause, traced)
        k += 1
      }
      spark.sparkContext.setLocalProperty(OpListener.OpProperty, null)
    }
    val setupS = (System.currentTimeMillis() - startMs) / 1e3
    if (cfg.trace) { loop(cfg.seconds / 2, traced = false); loop(cfg.seconds / 2, traced = true) }
    else loop(cfg.seconds, traced = false)
    tracer.enabled = false

    // After a full GC, Spark's ContextCleaner frees the broadcast join relations whose
    // references it collected, on a thread of its own: read the heap after a second GC, once
    // that thread has had time to run.
    val heapMb = {
      System.gc()
      Thread.sleep(500)
      System.gc()
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    }

    // ---- the known-failing ops, once each, untimed: their outcome is reported, not counted
    val knownFailures = wl.knownFailing.map { op =>
      val cause =
        try op.run()(cfg.corrupt)
        catch { case NonFatal(e) => Some(causeOf(e)) }
      op.shape -> cause.getOrElse("succeeds now")
    }

    // ---- end-to-end metrics, over succeeded ops. Each kind of op (query shape) counts at its
    // median time, so that a figure does not depend on how often each kind came up in the run.
    val ok = samples.filter(_.cause.isEmpty)
    val timed = ok.filter(_.traced == cfg.trace)
    /** (rows scored, median seconds) per kind of op of `mode` that succeeded. */
    def byShape(mode: String): Seq[(Long, Double)] =
      timed.filter(_.mode == mode).groupBy(_.shape).values.map(ss => (ss.head.rows, median(ss.map(_.ns / 1e9).toSeq))).toSeq
    /** Median op time per kind of op, averaged over the mode's kinds. */
    def p50(mode: String): Double = {
      val xs = byShape(mode)
      if (xs.isEmpty) Double.NaN else xs.map(_._2).sum / xs.size * 1e3
    }
    /** Rows scored per second: the mode's kinds of op, each at its median time. */
    def rowsPerS(mode: String): Double = {
      val xs = byShape(mode)
      if (xs.isEmpty) Double.NaN else xs.map(_._1).sum / xs.map(_._2).sum
    }
    // A mode the workload does not run (model_churn runs the SQL families only) has no figure.
    val modes = Fixture.Modes.filter(m => samples.exists(_.mode == m))
    val e2e = mutable.LinkedHashMap[String, (Double, String)]("setup_s" -> (setupS, "s"))
    Seq("dt", "rf").filter(modes.contains).foreach(m => e2e(s"query_ms_p50.$m") = (p50(m), "ms"))
    GatedModes.filter(modes.contains).foreach(m => e2e(s"rows_per_s.$m") = (rowsPerS(m), "rows/s"))
    e2e("retained_heap_mb") = (heapMb, "MB")

    // ---- per-layer metrics of the traced half
    val layer = mutable.LinkedHashMap[String, (Double, String)]()
    if (cfg.trace) {
      listener.drain(spark)
      val tracedOps = samples.indices.filter(i => samples(i).traced)
      val opCount = tracedOps.size.max(1).toDouble
      def perOp(key: String): Double = tracedOps.map(i => listener.get(i, key)).sum / opCount
      def meanCount(nameK: String): Double = { val xs = tracer.countsNamed(nameK); if (xs.isEmpty) 0.0 else xs.sum / xs.size }
      def meanSpanMs(nameK: String): Double = {
        val xs = tracer.spansNamed(nameK); if (xs.isEmpty) 0.0 else xs.map(_.durNs).sum / 1e6 / xs.size
      }
      val wallMs = tracer.countsNamed("bench.op_ms").sum
      layer("spark.jobs_per_op") = (perOp("jobs"), "count/op")
      layer("spark.stages_per_op") = (perOp("stages"), "count/op")
      layer("spark.tasks_per_op") = (perOp("tasks"), "count/op")
      layer("spark.task_busy_share") = (tracedOps.map(i => listener.get(i, "run_ms")).sum / (wallMs * cores), "share")
      Seq("scan_files" -> "count/op", "scan_bytes" -> "B/op", "scan_columns" -> "count/op")
        .foreach { case (m, u) => layer(s"spark.$m") = (meanCount(s"spark.$m"), u) }
      layer("spark.codegen_compiles") = (meanCount("spark.codegen_compiles"), "count/op")
      layer("spark.codegen_compile_ms") = (meanCount("spark.codegen_compile_ms"), "ms/op")
      layer("spark.codegen_fallbacks") = (meanCount("spark.codegen_fallbacks"), "count/op")
      layer("spark.gc_ms") = (meanCount("spark.gc_ms"), "ms/op")
      layer("sparkext.optimize_ms") = (meanSpanMs("sparkext.optimize"), "ms")
      layer("sparkext.plan_ms") = (meanSpanMs("sparkext.plan"), "ms")
      layer("sparkext.execute_ms") = (meanSpanMs("sparkext.execute"), "ms")
      Seq("predicts_remaining", "predicts_inlined", "derived_variants", "joins_removed")
        .foreach(m => layer(s"sparkext.$m") = (meanCount(s"sparkext.$m"), "count/op"))
      layer("sparkext.deploy_us") = (meanSpanMs("sparkext.deploy") * 1e3, "us")
      layer("ml.derive_ms") = (if (derive.isEmpty) 0.0 else derive.map(_._1).sum / derive.size, "ms")
      layer("ml.tree_nodes_before") = (if (derive.isEmpty) 0.0 else derive.map(_._2).sum.toDouble / derive.size, "count")
      layer("ml.tree_nodes_after") = (if (derive.isEmpty) 0.0 else derive.map(_._3).sum.toDouble / derive.size, "count")

      tracer.enabled = true
      new LayerProbes(fx, wl, sizes, tracer).run(layer)
      tracer.enabled = false

      val self = tracer.selfNsByLayer
      Seq("bench", "spark", "sparkext").foreach(l => layer(s"self_ms_per_op.$l") = (self.getOrElse(l, 0L) / 1e6 / opCount, "ms/op"))
      // Traced minus untraced op time, per kind of op that succeeded in both halves.
      val byShape = ok.groupBy(_.shape).values.flatMap { ss =>
        val (t, u) = ss.partition(_.traced)
        if (t.isEmpty || u.isEmpty) None else Some(median(t.map(_.ns / 1e6).toSeq) - median(u.map(_.ns / 1e6).toSeq))
      }
      layer("trace.overhead_ms_per_op") = (if (byShape.isEmpty) 0.0 else byShape.sum / byShape.size, "ms/op")
    }

    // ---- report
    val failed = samples.count(_.cause.nonEmpty)
    val wrong = samples.count(s => s.cause.exists(c => c == "wrong_answer" || c == "wrong_row_count"))
    val causes = samples.flatMap(_.cause).groupBy(identity).map { case (c, xs) => c -> xs.size }.toSeq.sortBy(-_._2)
    val env = envStamp(cfg, name, sizes, cores, fx)
    println(s"env ${Json.obj(env.map { case (k, v) => k -> Json.str(v) })}")
    // Every end-to-end figure per op kind, with its sample count; the result line below
    // carries the subset BENCHMARK.json names.
    val report = mutable.ArrayBuffer[(String, String, String)]()
    def add(metric: String, v: Double, unit: String, note: String = ""): Unit =
      report += ((metric, s"${Json.num(v)} $unit", note))
    add("setup_s", setupS, "s", fx.phases.map { case (p, s) => f"$p $s%.2f" }.mkString("of which ", ", ", ""))
    modes.foreach { m =>
      val xs = timed.filter(_.mode == m).map(_.ns / 1e6).toSeq
      val n = samples.count(s => s.mode == m && s.traced == cfg.trace)
      if (xs.isEmpty) Seq("query_ms_p50", "query_ms_p90", "rows_per_s")
        .foreach(k => report += ((s"$k.$m", "n/a", s"0 of $n ops succeeded")))
      else {
        add(s"query_ms_p50.$m", p50(m), "ms", s"${xs.size} of $n ops succeeded, ${byShape(m).size} kinds")
        add(s"query_ms_p90.$m", percentile(xs, 0.9), "ms",
          if (xs.size < 100) "fewer than 10 samples beyond it" else "")
        add(s"rows_per_s.$m", rowsPerS(m), "rows/s")
      }
    }
    add("retained_heap_mb", heapMb, "MB")
    add("ops_attempted", samples.size, "count")
    add("ops_failed", failed, "count", causes.map { case (c, n) => s"$n x $c" }.mkString("; "))
    knownFailures.groupBy(_._2).toSeq.sortBy(_._1).zipWithIndex.foreach { case ((c, xs), i) =>
      report += ((s"known_failing.${i + 1}", s"${xs.size} x $c", xs.map(_._1).mkString(", ")))
    }
    wl match {
      case i: Interactive if i.versionsReused > 0 => report += (("versions_reused", i.versionsReused.toString, ""))
      case _ =>
    }
    println(s"$name seed ${cfg.seed} trace ${if (cfg.trace) 1 else 0}")
    report.foreach { case (m, v, note) => println(f"  $m%-26s $v%-26s $note") }
    val metrics = if (cfg.trace) layer else e2e
    println(s"  ${if (cfg.trace) "per_layer" else "end_to_end"} metrics:")
    metrics.foreach { case (k, (v, u)) => println(f"    $k%-34s ${Json.num(v)} $u") }

    cfg.out.foreach { dir =>
      Files.createDirectories(dir)
      val base = s"$name-seed${cfg.seed}-trace${if (cfg.trace) 1 else 0}"
      val body = Json.obj(Seq(
        "env" -> Json.obj(env.map { case (k, v) => k -> Json.str(v) }),
        "report" -> Json.obj(report.toSeq.map { case (m, v, note) => m -> Json.str(s"$v $note".trim) }),
        "ops" -> samples.map(s => Seq(Json.str(s.mode), Json.str(s.shape), Json.num(s.ns / 1e6), s.cause.map(Json.str).getOrElse("null"),
          s.traced.toString).mkString("[", ", ", "]")).mkString("[", ", ", "]"),
        "metrics" -> metricsJson(metrics),
      ))
      Files.write(dir.resolve(s"$base.json"), body.getBytes("UTF-8"))
      if (cfg.trace) Files.write(dir.resolve(s"$base-spans.json"), tracer.toJson.getBytes("UTF-8"))
    }
    fx.close()

    println(Json.obj(Seq(
      "correct" -> (wrong == 0).toString,
      "attempted" -> samples.size.toString,
      "failed" -> failed.toString,
      "metrics" -> metricsJson(metrics),
    )))
  }

  private def metricsJson(m: mutable.LinkedHashMap[String, (Double, String)]): String =
    Json.obj(m.toSeq.map { case (k, (v, u)) => k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u))) })

  private def envStamp(cfg: Config, name: String, sizes: Sizes, cores: Int, fx: Fixture): Seq[(String, String)] =
    cfg.stamp ++ Seq(
      "workload" -> name,
      "seed" -> cfg.seed.toString,
      "seconds" -> cfg.seconds.toString,
      "nproc" -> cores.toString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "spark" -> fx.spark.version,
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "sizes" -> sizes.toString,
      "dt_nodes" -> Fixture.treeNodes(fx.pipelines("dt").model).toString,
      "rf_nodes" -> Fixture.treeNodes(fx.pipelines("rf").model).toString,
      "inline_max_nodes" -> Raven.DefaultInlineMaxNodes.toString,
    ) ++ Fixture.sparkConfs(cores, cfg.work).filterNot(_._1.endsWith(".dir")).map { case (k, v) => k -> v }
}
