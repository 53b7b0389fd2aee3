package repro.runtime

import java.nio.file.Files
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._
import org.scalatest.funsuite.AnyFunSuite
import repro.TestModels
import repro.data.HospitalData
import repro.ml.{NNPipelineModel, NNTranslator}
import repro.onnx.Session

class RuntimesSpec extends AnyFunSuite {

  private lazy val mp = TestModels.hospitalForestPipeline
  private lazy val graph = NNTranslator.translatePipeline(mp)
  private lazy val rows = TestModels.hospitalRows.take(500).map(HospitalData.rawValues).toIndexedSeq
  private lazy val expected = {
    val preds = NNPipelineModel(graph, mp.pipeline).predictRawBatch(rows)
    // equal predictions would leave the checksum checks comparing row counts only
    assert(preds.distinct.size > 1, "fixture predictions are all equal")
    preds
  }

  private def savedModelDir = {
    val dir = Files.createTempDirectory("model")
    OrtStandalone.saveModel(graph, mp.pipeline, dir)
    dir
  }

  private def csvOf(rs: IndexedSeq[IndexedSeq[Any]]) = {
    val f = Files.createTempFile("data", ".csv")
    CsvData.write(rs.iterator, f)
    f
  }

  test("CSV roundtrip preserves numerics and strings") {
    val f = csvOf(IndexedSeq(IndexedSeq(1.5, "abc", 3), IndexedSeq(-2.0, "x", 7)))
    val back = CsvData.readBatches(f, 10).flatten.toIndexedSeq
    assert(back == IndexedSeq(IndexedSeq(1.5, "abc", 3.0), IndexedSeq(-2.0, "x", 7.0)))
    Files.delete(f)
  }

  test("CSV batching honors batch size") {
    val f = csvOf(IndexedSeq.tabulate(10)(i => IndexedSeq(i.toDouble)))
    val batches = CsvData.readBatches(f, 3).toSeq
    assert(batches.map(_.size) == Seq(3, 3, 3, 1))
    Files.delete(f)
  }

  test("standalone ORT run matches in-memory predictions") {
    val dir = savedModelDir
    val csv = csvOf(rows)
    val res = OrtStandalone.run(dir, csv)
    assert(res.rows == 500)
    assert(math.abs(res.checksum - expected.sum) < 1e-2)
  }

  test("standalone ORT per-tuple (batch=1) equals batched") {
    val dir = savedModelDir
    val csv = csvOf(rows.take(50))
    val batched = OrtStandalone.run(dir, csv, batchSize = 4096)
    val perTuple = OrtStandalone.run(dir, csv, batchSize = 1)
    assert(math.abs(batched.checksum - perTuple.checksum) < 1e-4)
    assert(perTuple.rows == 50)
  }

  test("out-of-process runtime (forked JVM) matches and exits cleanly") {
    val dir = savedModelDir
    val csv = csvOf(rows)
    val res = OutOfProcess.run(dir, csv)
    assert(res.exitCode == 0)
    assert(res.rows == 500)
    assert(math.abs(res.checksum - expected.sum) < 1e-2)
  }

  test("out-of-process runtime drains a child's stderr and reports the failure") {
    val dir = savedModelDir
    val csv = csvOf(rows.take(10))
    // the unknown mode's message, about 100 KB, overflows the stderr pipe
    val run = Future(OutOfProcess.run(dir, csv, mode = "x" * 100000))
    val res = Await.result(run, 60.seconds)
    assert(res.exitCode != 0)
    assert(res.rows == 0)
    assert(res.stderrTail.length <= OutOfProcess.StderrTailChars && res.stderrTail.contains("xxxx"))
  }

  test("simulated GPU session computes identical results to the CPU session") {
    val model = TestModels.hospitalForest
    val g = NNTranslator.translateModel(model, "rf_gpu")
    val cpu = new Session(g)
    val gpu = new SimGpu.GpuSession(g, SimGpu.GpuSpec(kernelLaunchMicros = 1.0))
    val xs = TestModels.hospitalX.take(200)
    val a = cpu.predictBatch(xs)
    val b = gpu.predictBatch(xs)
    a.zip(b).foreach { case (x, y) => assert(x == y) }
  }
}
