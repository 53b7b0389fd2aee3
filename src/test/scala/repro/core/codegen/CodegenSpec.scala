package repro.core.codegen

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec, TestModels, TestTables}
import repro.core.ir._
import repro.ml.NNPipelineModel
import repro.ml.NNTranslator
import repro.sparkext.PredictExpression

class CodegenSpec extends AnyFunSuite with SparkSpec {

  private lazy val tables = TestTables.tables(spark)
  private val catalog = TestTables.hospitalCatalog

  private def scan(t: String) = IRScan(t, catalog.table(t).columns)

  test("scan + filter + project lowers correctly (oracle-checked)") {
    val ir = IRProject(
      Seq(NamedExpr("patient_id", ColRef("patient_id")), NamedExpr("age", ColRef("age"))),
      IRFilter(And(Cmp(">", ColRef("age"), NumLit(40)), Cmp("=", ColRef("gender"), StrLit("F"))),
        scan("patient_info")))
    val df = RuntimeCodeGenerator.toDataFrame(ir, tables)
    val sql = RuntimeCodeGenerator.toSql(ir).get
    Oracle.assertEquivalent(df, sql, "patient_info" -> tables("patient_info"))
  }

  test("join lowers correctly with shared key name (oracle-checked)") {
    val ir = IRProject(
      Seq(NamedExpr("patient_id", ColRef("patient_id")), NamedExpr("bp", ColRef("bp")),
        NamedExpr("age", ColRef("age"))),
      IRJoin(scan("patient_info"), scan("prenatal_tests"), "patient_id", "patient_id"))
    val df = RuntimeCodeGenerator.toDataFrame(ir, tables)
    val sql = RuntimeCodeGenerator.toSql(ir).get
    Oracle.assertEquivalent(df, sql,
      "patient_info" -> tables("patient_info"), "prenatal_tests" -> tables("prenatal_tests"))
  }

  test("join output columns dedup the right key") {
    val ir = IRJoin(scan("patient_info"), scan("blood_tests"), "patient_id", "patient_id")
    val df = RuntimeCodeGenerator.toDataFrame(ir, tables)
    assert(df.columns.count(_ == "patient_id") == 1)
    assert(df.columns.toSeq == ir.outputCols)
  }

  private def predictsIn(df: org.apache.spark.sql.DataFrame): Seq[PredictExpression] =
    df.queryExecution.optimizedPlan.flatMap(_.expressions.flatMap(_.collect { case p: PredictExpression => p }))

  test("inline-predict lowers to a scalar expression (oracle-checked)") {
    // Raven's rules inline the lowered predict of a small tree; toSql renders it as CASE
    val ir = IRProject(
      Seq(NamedExpr("patient_id", ColRef("patient_id")), NamedExpr("c", ColRef("c"))),
      IRPredict("c", TestModels.handTreePipeline, scan("patients_all")))
    val df = RuntimeCodeGenerator.toDataFrame(ir, TestTables.optimized)
    assert(predictsIn(df).isEmpty)
    Oracle.assertEquivalent(df, RuntimeCodeGenerator.toSql(ir).get, "patients_all" -> tables("patients_all"))
  }

  test("predict lowers to raven_predict and matches driver predictions") {
    val ir = IRPredict("score", TestModels.handTreePipeline, scan("patients_all"))
    val df = RuntimeCodeGenerator.toDataFrame(ir, Map("patients_all" -> tables("patients_all")))
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
    assert(RuntimeCodeGenerator.toSql(ir.copy(pipeline = TestModels.hospitalMlpPipeline)).isEmpty)
  }

  test("NN-predict lowers and matches the classical pipeline within float32") {
    val mp = TestModels.handTreePipeline
    val nn = NNPipelineModel(NNTranslator.translatePipeline(mp), mp.pipeline)
    val ir = IRNNPredict("score", nn, scan("patients_all"))
    val df = RuntimeCodeGenerator.toDataFrame(ir, Map("patients_all" -> tables("patients_all")))
    val classical = RuntimeCodeGenerator.toDataFrame(
      IRPredict("score", mp, scan("patients_all")), Map("patients_all" -> tables("patients_all")))
    TestTables.assertSameRows(
      df.select("patient_id", "score"), classical.select("patient_id", "score"), eps = 1e-3)
  }

  test("UDF lowers via the fallback row runtime") {
    val ir = IRUdf("double_age", "age2", Seq("age"), r => r(0).asInstanceOf[Int] * 2.0,
      scan("patient_info"))
    val df = RuntimeCodeGenerator.toDataFrame(ir, tables)
    df.select("age", "age2").collect().foreach { r =>
      assert(r.getDouble(1) == r.getInt(0) * 2.0)
    }
  }

  test("unknown table binding fails fast") {
    assertThrows[IllegalArgumentException] {
      RuntimeCodeGenerator.toDataFrame(scan("patient_info"), Map.empty[String, org.apache.spark.sql.DataFrame])
    }
  }

  test("temp-view resolution works") {
    val df = RuntimeCodeGenerator.toDataFrame(scan("patient_info"), spark)
    assert(df.count() == TestTables.HospitalN)
  }
}
