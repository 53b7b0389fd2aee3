package repro.perfbench

import java.nio.file.Files
import scala.collection.mutable
import repro.core.analysis.StaticAnalyzer
import repro.core.ir.{ForeignKey, SchemaCatalog, TableDef}
import repro.core.opt.CrossOptimizer
import repro.data.HospitalData
import repro.linalg.Tensor
import repro.ml.{FeaturePipeline, ModelPipeline}
import repro.onnx.{ModelFormat, Ops, Session}
import repro.runtime.{CsvData, OutOfProcess}

/** Per-layer figures the traced run measures after its timed ops.
  *
  * The ml, onnx and linalg layers run inside Spark tasks, where the
  * benchmark cannot wrap them from outside, so they are replayed here on a
  * fixed sample of the scored rows, single-threaded, at the runtime's
  * 4096-row batch size. Each probe is one span (op id -1).
  */
final class LayerProbes(fx: Fixture, wl: Workload, sizes: Sizes, tracer: Tracer) {

  type Metrics = mutable.LinkedHashMap[String, (Double, String)]

  private val BatchRows = repro.sparkext.RavenRuntime.DefaultBatchSize

  /** Nanoseconds per call of `body`, repeated until `minNs` have passed (after one warm-up call). */
  private def nsPerCall(name: String, minNs: Long = 40000000L)(body: => Any): Double = tracer.span(name) {
    body
    var reps = 0
    val t0 = System.nanoTime()
    while (reps < 3 || System.nanoTime() - t0 < minNs) { body; reps += 1 }
    (System.nanoTime() - t0).toDouble / reps
  }

  private def timeNs(body: => Any): Long = { val t0 = System.nanoTime(); body; System.nanoTime() - t0 }

  private def feeds(pipe: FeaturePipeline, raw: IndexedSeq[IndexedSeq[Any]]): Map[String, Tensor] = {
    val perRow = raw.map(pipe.toGraphFeeds)
    pipe.inputCols.zipWithIndex.map { case (c, i) =>
      c -> new Tensor(raw.size, 1, Array.tabulate(raw.size)(r => perRow(r)(i).toFloat))
    }.toMap
  }

  private val catalog: SchemaCatalog = new SchemaCatalog()
    .register(TableDef("patient_info",
      Seq("patient_id", "age", "gender", "pregnant", "num_prev_admissions"), Some("patient_id")))
    .register(TableDef("blood_tests",
      Seq("patient_id", "hematocrit", "neutrophils", "glucose", "bmi", "pulse"), Some("patient_id")))
    .register(TableDef("prenatal_tests", Seq("patient_id", "bp", "fetal_hr", "gestation_weeks"), Some("patient_id")))
    .register(TableDef("patients_all", Seq("patient_id", "age", "gender", "pregnant", "num_prev_admissions",
      "hematocrit", "neutrophils", "glucose", "bmi", "pulse", "bp", "fetal_hr", "gestation_weeks", "lengthofstay"),
      Some("patient_id")))
    .registerFk(ForeignKey("patient_info", "patient_id", "blood_tests", "patient_id"))
    .registerFk(ForeignKey("patient_info", "patient_id", "prenatal_tests", "patient_id"))

  def run(out: Metrics): Unit = {
    val spark = fx.spark

    // ---- spark: the per-query floor and the scan without the predict
    out("spark.floor_ms") = (Main.median((0 until 9).map(_ => tracer.span("spark.floor")(timeNs(spark.range(1).count())) / 1e6)), "ms")
    val scanMs = wl.scanQueries.map { q =>
      spark.sql(q).collect()
      Main.median((0 until 2).map(_ => tracer.span("spark.scan")(timeNs(spark.sql(q).collect())) / 1e6))
    }
    out("spark.scan_ms") = (scanMs.sum / scanMs.size, "ms")

    // ---- core: the IR analyzer and Cross Optimizer on the workload's query texts
    val store: String => ModelPipeline = fx.pipelines
    val irs = wl.irQueries.map(q => StaticAnalyzer.analyzeSql(q, catalog, store).ir)
    out("core.analyze_us") = (wl.irQueries.map(q =>
      nsPerCall("core.analyze", 5000000L)(StaticAnalyzer.analyzeSql(q, catalog, store))).sum / irs.size / 1e3, "us")
    out("core.optimize_us") = (irs.map(ir =>
      nsPerCall("core.optimize", 5000000L)(CrossOptimizer.optimize(ir, catalog))).sum / irs.size / 1e3, "us")

    // ---- ml: featurization and model calls on a fixed sample
    val sample = fx.rows.iterator.take(BatchRows).map(HospitalData.rawValues).toIndexedSeq
    val n = sample.size.toDouble
    val pipe = HospitalData.pipeline
    out("ml.featurize_ns_per_row") = (nsPerCall("ml.featurize")(sample.foreach(pipe.transform)) / n, "ns/row")
    out("ml.graph_feeds_ns_per_row") = (nsPerCall("ml.graph_feeds")(sample.foreach(pipe.toGraphFeeds)) / n, "ns/row")
    val feats = sample.map(pipe.transform)
    Fixture.Families.foreach { f =>
      val mp = fx.pipelines(f)
      val x = mp.scaler.map(s => feats.map(s.transform)).getOrElse(feats)
      out(s"ml.predict_ns_per_row.$f") = (nsPerCall("ml.predict")(x.foreach(mp.model.predict)) / n, "ns/row")
    }
    Seq("rf", "mlp").foreach { f =>
      val mp = fx.pipelines(f)
      out(s"ml.pipeline_ns_per_row.$f") = (nsPerCall("ml.pipeline")(sample.foreach(mp.predictRaw)) / n, "ns/row")
    }
    val nnPipelineNs = Fixture.NNOf.keys.toSeq.sorted.map { m =>
      val ns = nsPerCall("ml.nn_pipeline")(fx.nn(m).predictRawBatch(sample)) / n
      out(s"ml.nn_pipeline_ns_per_row.$m") = (ns, "ns/row")
      m -> ns
    }.toMap
    val translate = tracer.spansNamed("ml.translate")
    out("ml.translate_ms") = (translate.map(_.durNs).sum / 1e6 / translate.size, "ms")

    // ---- onnx: session build, graph run, and each op type in graph order
    val sessions = fx.graphs.map { case (m, g) => m -> new Session(g) }
    out("onnx.session_build_ms") = (fx.graphs.values.map(g => nsPerCall("onnx.session_build")(new Session(g))).sum / 1e6, "ms")
    out("onnx.graph_nodes_raw") = (fx.graphs.values.map(_.nodeCount).sum.toDouble, "count")
    out("onnx.graph_nodes_opt") = (sessions.values.map(_.graph.nodeCount).sum.toDouble, "count")
    val feedMap = feeds(pipe, sample)
    val runNs = sessions.toSeq.sortBy(_._1).map { case (m, s) =>
      val ns = nsPerCall("onnx.run")(s.run(feedMap)) / n
      out(s"onnx.run_ns_per_row.$m") = (ns, "ns/row")
      m -> ns
    }.toMap
    out("onnx.feed_build_ns_per_row") =
      (runNs.keys.map(m => nnPipelineNs(m) - runNs(m)).sum / runNs.size, "ns/row")

    val opNs = mutable.LinkedHashMap[String, Double]().withDefaultValue(0.0)
    val matmuls = mutable.ArrayBuffer[(Tensor, Tensor)]()
    val elementwise = mutable.ArrayBuffer[(String, Tensor, Tensor)]()
    tracer.span("onnx.ops") {
      val reps = 5
      sessions.values.foreach { s =>
        val g = s.graph
        for (rep <- 0 to reps) {
          val env = mutable.Map[String, Tensor](g.initializers.toSeq: _*)
          feedMap.foreach { case (k, v) => if (g.inputs.contains(k)) env(k) = v }
          g.nodes.foreach { node =>
            val in = node.inputs.map(env)
            val t0 = System.nanoTime()
            env(node.output) = Ops.execute(node, in)
            if (rep > 0) opNs(node.op) += (System.nanoTime() - t0).toDouble / reps
            else node.op match {
              case "MatMul"                 => matmuls += ((in(0), in(1)))
              case "Less" | "Equal" | "Add" => elementwise += ((node.op, in(0), in(1)))
              case _                        =>
            }
          }
        }
      }
    }
    LayerProbes.OnnxOps.foreach(op => out(s"onnx.op_ns_per_row.$op") = (opNs(op) / n, "ns/row"))

    val modelDir = fx.dir.resolve("ext_model")
    out("onnx.model_load_ms") =
      (nsPerCall("onnx.model_load")(ModelFormat.load(modelDir.resolve("model.onnxlite"))) / 1e6, "ms")

    // ---- linalg: the kernels at the graphs' own shapes. MACs and bytes are
    // computed from the shapes (k x m times m x n), not counted by hardware.
    val macNs = matmuls.map { case (a, b) => nsPerCall("linalg.matmul", 10000000L)(a.matmul(b)) }.sum
    val macs = matmuls.map { case (a, b) => a.rows.toDouble * a.cols * b.cols }.sum
    out("linalg.matmul_mac_per_ns") = (macs / macNs, "MAC/ns")
    out("linalg.matmul_macs_per_row") = (macs / n, "MAC")
    out("linalg.matmul_bytes_per_row") =
      (matmuls.map { case (a, b) => 4.0 * (a.cols + b.cols) + 4.0 * b.rows * b.cols / a.rows }.sum, "B")
    val elemNs = elementwise.map { case (op, a, b) =>
      nsPerCall("linalg.elementwise", 5000000L)(op match {
        case "Less"  => a.lt(b)
        case "Equal" => a.eq0(b)
        case _       => a.add(b)
      })
    }.sum
    val elems = elementwise.map { case (_, a, b) => a.rows.max(b.rows).toDouble * a.cols.max(b.cols) }.sum
    out("linalg.elementwise_ns_per_elem") = (elemNs / elems, "ns/elem")

    // ---- runtime: the external process on no rows and on an exported slice
    val slice = if (wl.name == "bulk_score") sizes.extRows else sizes.windows.max
    val from = if (wl.name == "bulk_score") "patients_all WHERE patient_id"
      else "patient_info pi JOIN blood_tests bt ON pi.patient_id = bt.patient_id " +
        "JOIN prenatal_tests pt ON pi.patient_id = pt.patient_id WHERE pi.patient_id"
    val exportSql = s"SELECT ${Workloads.InputCols.mkString(", ")} FROM $from < $slice"
    val empty = fx.dir.resolve("empty.csv")
    Files.write(empty, Array.emptyByteArray)
    val startupMs = Main.median((0 until 3).map(_ =>
      tracer.span("runtime.ext_startup")(timeNs(OutOfProcess.run(modelDir, empty))) / 1e6))
    out("runtime.ext_startup_ms") = (startupMs, "ms")
    val csv = fx.dir.resolve("slice.csv")
    val exportNs = nsPerCall("runtime.export", 0L) {
      CsvData.write(spark.sql(exportSql).collect().iterator.map(_.toSeq.toIndexedSeq), csv)
    }
    out("runtime.export_ns_per_row") = (exportNs / slice, "ns/row")
    out("runtime.csv_parse_ns_per_row") =
      (nsPerCall("runtime.csv_parse", 0L)(CsvData.readBatches(csv, BatchRows).foreach(_ => ())) / slice, "ns/row")
    val extMs = tracer.span("runtime.ext_run")(timeNs(OutOfProcess.run(modelDir, csv))) / 1e6
    out("runtime.ext_ns_per_row") = ((extMs - startupMs) * 1e6 / slice, "ns/row")
    Files.deleteIfExists(csv)
    Files.deleteIfExists(empty)
  }
}

object LayerProbes {
  /** The op types the translated rf and mlp pipeline graphs contain. */
  val OnnxOps: Seq[String] = Seq("MatMul", "Add", "Less", "Equal", "Concat", "OneHot", "Relu", "Sigmoid", "Scale", "Sum")
}
