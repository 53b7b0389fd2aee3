package repro.runtime

import java.nio.file.Files
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._
import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}
import repro.{SparkSpec, TestModels}
import repro.data.HospitalData
import repro.ml.{FeaturePipeline, LinearModel, ModelPipeline, NNPipelineModel, NNTranslator, OneHotEncoder}
import repro.sparkext.{ModelRegistry, Raven}

class RuntimesSpec extends SparkSpec {

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
    assert(back == IndexedSeq(IndexedSeq("1.5", "abc", "3"), IndexedSeq("-2.0", "x", "7")))
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
    val nn = NNPipelineModel(graph, mp.pipeline)
    val gpu = new SimGpu.GpuSession(graph, SimGpu.GpuSpec(kernelLaunchMicros = 1.0))
    val xs = rows.take(200)
    assert(gpu.run(nn.feeds(xs)).data.map(_.toDouble).sameElements(nn.predictRawBatch(xs)))
  }

  /** The sum of `1.0 a + 10.0 [c = "1"] + 100.0 [c = "2"]` over rows `(a, c)` by `raven_predict`, after
    * checking that the standalone run and both external modes score the rows' CSV to the same sum.
    */
  private def sumOnEveryPath(rs: IndexedSeq[IndexedSeq[Any]]): Double = {
    val pipe = FeaturePipeline(Seq("a"), Seq(OneHotEncoder("c", IndexedSeq("1", "2"))))
    val mp = ModelPipeline("csv_paths", pipe, None, LinearModel(Array(1.0, 10.0, 100.0), 0.0, logistic = false))
    val dir = Files.createTempDirectory("model")
    OrtStandalone.saveModel(NNTranslator.translatePipeline(mp), pipe, dir)
    ModelRegistry.save(mp, dir.resolve("classic.bin"))
    val csv = csvOf(rs)
    Raven.installRuntimeOnly(spark)
    Raven.deploy(mp)
    val schema = StructType(Seq(StructField("a", DoubleType), StructField("c", StringType)))
    val df = spark.createDataFrame(java.util.Arrays.asList(rs.map(Row.fromSeq): _*), schema)
    val want = df.selectExpr(s"sum(${Raven.predictSql(mp.id)})").head().getDouble(0)
    assert(OrtStandalone.run(dir, csv).checksum == want)
    for (mode <- Seq("nn", "classic")) assert(OutOfProcess.run(dir, csv, mode = mode).checksum == want, mode)
    want
  }

  test("a category written as a number scores the same through the standalone, external and raven_predict paths") {
    assert(sumOnEveryPath(IndexedSeq(IndexedSeq(0.5, "1"), IndexedSeq(0.25, "2"), IndexedSeq(2.0, "3"))) ==
      0.5 + 10 + 0.25 + 100 + 2.0)
  }

  test("a NULL scores alike on the CSV paths and in raven_predict") {
    val rs = IndexedSeq(IndexedSeq(null, "1"), IndexedSeq(2.0, null))
    val f = csvOf(rs)
    assert(CsvData.readBatches(f, 10).flatten.toIndexedSeq == IndexedSeq(IndexedSeq(null, "1"), IndexedSeq("2.0", null)))
    Files.delete(f)
    assert(sumOnEveryPath(rs) == 10.0 + 2.0)
  }

  test("a CSV row of the wrong arity fails the standalone run with the pipeline's message") {
    val dir = savedModelDir
    for (bad <- Seq(rows.head :+ 1.0, rows.head.init)) {
      val e = intercept[IllegalArgumentException](OrtStandalone.run(dir, csvOf(IndexedSeq(bad))))
      assert(e.getMessage.contains(s"expected ${mp.inputCols.size} values, got ${bad.size}"))
    }
  }
}
