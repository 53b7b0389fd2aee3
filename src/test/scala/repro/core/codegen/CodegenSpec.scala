package repro.core.codegen

import org.apache.spark.sql.{AnalysisException, DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, OracleSql, SparkSpec, TestModels, TestTables}
import repro.core.analysis.{PipelineScript, StaticAnalyzer}
import repro.ml.{ModelPipeline, NNPipelineModel, NNTranslator}
import repro.sparkext.{PredictExpression, Raven, RavenRuntime}

/** The analyzers' Catalyst plans run through `Raven.run`, checked against
  * the DuckDB oracle, the pipelines' own `predictRaw` and the NN runtime.
  */
class CodegenSpec extends AnyFunSuite with SparkSpec {

  private lazy val tables = TestTables.tables(spark)
  private val catalog = TestTables.hospitalCatalog
  private val store: String => ModelPipeline =
    Map("hand_dt" -> TestModels.handTreePipeline, "mlp" -> TestModels.hospitalMlpPipeline)

  private def analyze(sql: String) = StaticAnalyzer.analyzeSql(sql, catalog, store)

  private def run(plan: LogicalPlan, s: SparkSession = spark): DataFrame = {
    tables // temp views on the shared session
    Raven.run(s, plan)
  }

  private def run(a: StaticAnalyzer.SqlAnalysis): DataFrame = run(a.ir)

  private def script(body: String, udfs: PipelineScript.UdfRegistry = new PipelineScript.UdfRegistry) =
    PipelineScript.analyze(body, catalog, store, udfs).plans.head

  test("scan + filter + project lowers correctly (oracle-checked)") {
    val a = analyze("SELECT patient_id, age FROM patient_info WHERE age > 40 AND gender = 'F'")
    Oracle.assertEquivalent(run(a), OracleSql.toSql(a.ir).get, "patient_info" -> tables("patient_info"))
  }

  test("join lowers correctly with shared key name (oracle-checked)") {
    val a = analyze("SELECT patient_id, bp, age FROM patient_info " +
      "JOIN prenatal_tests ON patient_info.patient_id = prenatal_tests.patient_id")
    Oracle.assertEquivalent(run(a), OracleSql.toSql(a.ir).get,
      "patient_info" -> tables("patient_info"), "prenatal_tests" -> tables("prenatal_tests"))
  }

  test("join output columns dedup the right key") {
    val p = script(
      """a = read("patient_info")
        |b = read("blood_tests")
        |j = join(a, b, "patient_id")""".stripMargin)
    val df = run(p.ir)
    assert(df.columns.count(_ == "patient_id") == 1)
    assert(df.columns.toSeq == catalog.table("patient_info").columns ++ catalog.table("blood_tests").columns.tail)
  }

  private def predictsIn(df: DataFrame): Seq[PredictExpression] =
    df.queryExecution.optimizedPlan.flatMap(_.expressions.flatMap(_.collect { case p: PredictExpression => p }))

  test("inline-predict lowers to a scalar expression (oracle-checked)") {
    // Raven's rules inline the predict of a small tree; the oracle renders it as CASE
    val a = analyze("SELECT patient_id, PREDICT(hand_dt) AS c FROM patients_all")
    val df = run(a.ir, TestTables.optimized)
    assert(predictsIn(df).isEmpty)
    Oracle.assertEquivalent(df, OracleSql.toSql(a.ir).get, "patients_all" -> tables("patients_all"))
  }

  test("predict lowers to raven_predict and matches driver predictions") {
    val a = analyze("SELECT *, PREDICT(hand_dt) AS score FROM patients_all")
    val df = run(a)
    assert(predictsIn(df).map(_.modelId) == Seq(TestModels.handTreePipeline.id))
    val got = df.select("patient_id", "score").collect()
      .map(r => r.getLong(0) -> r.getDouble(1)).toMap
    TestModels.hospitalRows.take(100).foreach { j =>
      if (got.contains(j.patient_id)) {
        val want = TestModels.handTreePipeline.predictRaw(repro.data.HospitalData.rawValues(j))
        assert(math.abs(got(j.patient_id) - want) < 1e-12)
      }
    }
    // only a scaler-free tree or forest has a CASE form
    val mlp = analyze("SELECT *, PREDICT(mlp) AS score FROM patients_all")
    assert(OracleSql.toSql(mlp.ir).isEmpty)
  }

  test("NN-predict lowers and matches the classical pipeline within float32") {
    val mp = TestModels.handTreePipeline
    val nn = NNPipelineModel(NNTranslator.translatePipeline(mp), mp.pipeline)
    val df = RavenRuntime.predictNNBatch(run(analyze("SELECT * FROM patients_all")), nn, "score")
    val classical = run(analyze("SELECT *, PREDICT(hand_dt) AS score FROM patients_all"))
    TestTables.assertSameRows(
      df.select("patient_id", "score"), classical.select("patient_id", "score"), eps = 1e-3)
  }

  test("UDF lowers via the fallback row runtime") {
    val udfs = new PipelineScript.UdfRegistry().register("double_age", r => r(1).asInstanceOf[Int] * 2.0)
    val p = script(
      """df = read("patient_info")
        |df = double_age(df)""".stripMargin, udfs)
    val df = run(p.ir)
    df.select("age", "double_age_out").collect().foreach { r =>
      assert(r.getDouble(1) == r.getInt(0) * 2.0)
    }
  }

  test("unknown table binding fails fast") {
    // tables resolve from the session's catalog when the plan runs
    val plan = StaticAnalyzer.analyzeSql("SELECT * FROM patient_info", catalog, store).ir
    assertThrows[AnalysisException](Raven.run(SparkSpec.shared.newSession(), plan))
  }

  test("temp-view resolution works") {
    val df = run(analyze("SELECT * FROM patient_info"))
    assert(df.count() == TestTables.HospitalN)
  }
}
