package repro.core.analysis

import org.apache.spark.sql.catalyst.analysis.{UnresolvedRelation, UnresolvedStar}
import org.apache.spark.sql.catalyst.expressions.Alias
import org.apache.spark.sql.catalyst.plans.{Inner, UsingJoin}
import org.apache.spark.sql.catalyst.plans.logical.{Filter, Join, LogicalPlan, Project}
import org.scalatest.funsuite.AnyFunSuite
import repro.{TestModels, TestTables}
import repro.core.ir._
import repro.sparkext.PredictExpression

class StaticAnalyzerSpec extends AnyFunSuite {

  /** The plan's output columns, resolved against the test tables of the same names. */
  private def outputCols(plan: LogicalPlan): Seq[String] =
    TestTables.reference.sessionState.executePlan(plan).analyzed.output.map(_.name)

  private val catalog = new SchemaCatalog()
    .register(TableDef("patient_info",
      Seq("patient_id", "age", "gender", "pregnant", "num_prev_admissions"), Some("patient_id")))
    .register(TableDef("blood_tests",
      Seq("patient_id", "hematocrit", "neutrophils", "glucose", "bmi", "pulse"), Some("patient_id")))
    .register(TableDef("prenatal_tests",
      Seq("patient_id", "bp", "fetal_hr", "gestation_weeks"), Some("patient_id")))

  private val store: String => repro.ml.ModelPipeline =
    Map("hospital_dt" -> TestModels.handTreePipeline)

  test("running example: canonical IR shape (Fig. 1)") {
    val res = StaticAnalyzer.analyzeSql(
      """SELECT patient_id, PREDICT(hospital_dt) AS los
        |FROM patient_info
        |JOIN blood_tests ON patient_info.patient_id = blood_tests.patient_id
        |JOIN prenatal_tests ON patient_info.patient_id = prenatal_tests.patient_id
        |WHERE pregnant = 1 AND PREDICT(hospital_dt) > 7""".stripMargin,
      catalog, store)

    val project = res.ir.asInstanceOf[Project]
    assert(project.projectList.map(_.name) == Seq("patient_id", "los"))
    val scoreFilter = project.child.asInstanceOf[Filter]
    assert(scoreFilter.condition.sql == "(los > 7)")
    val predict = scoreFilter.child.asInstanceOf[Project]
    val Seq(UnresolvedStar(None), Alias(p: PredictExpression, "los")) = predict.projectList
    assert(p.pipeline == TestModels.handTreePipeline)
    assert(p.children.map(_.sql) == TestModels.handTreePipeline.inputCols)
    val relFilter = predict.child.asInstanceOf[Filter]
    assert(relFilter.condition.sql == "(pregnant = 1)")
    // joins on one key name are USING joins, which keep one patient_id
    val join2 = relFilter.child.asInstanceOf[Join]
    assert(join2.joinType == UsingJoin(Inner, Seq("patient_id")))
    assert(join2.right == UnresolvedRelation(Seq("prenatal_tests")))
    assert(join2.left.asInstanceOf[Join].right == UnresolvedRelation(Seq("blood_tests")))
  }

  test("score column naming follows the select alias") {
    val res = StaticAnalyzer.analyzeSql(
      "SELECT PREDICT(hospital_dt) AS mylos FROM patient_info " +
        "JOIN blood_tests ON patient_id = patient_id JOIN prenatal_tests ON patient_id = patient_id",
      catalog, store)
    assert(outputCols(res.ir) == Seq("mylos"))
  }

  test("predict only in WHERE still scores, with default column name") {
    val res = StaticAnalyzer.analyzeSql(
      "SELECT patient_id FROM patient_info " +
        "JOIN blood_tests ON patient_id = patient_id JOIN prenatal_tests ON patient_id = patient_id " +
        "WHERE PREDICT(hospital_dt) > 7",
      catalog, store)
    assert(outputCols(res.ir) == Seq("patient_id"))
    assert(res.ir.exists {
      case Filter(p, _) => p.sql == s"(${StaticAnalyzer.ScoreCol} > 7)"
      case _ => false
    })
  }

  test("SELECT * keeps all columns plus score") {
    val res = StaticAnalyzer.analyzeSql(
      "SELECT * FROM patient_info WHERE age > 35", catalog, store)
    assert(outputCols(res.ir) == catalog.table("patient_info").columns)
    val scored = StaticAnalyzer.analyzeSql(
      "SELECT * FROM patient_info JOIN blood_tests ON patient_id = patient_id " +
        "JOIN prenatal_tests ON patient_id = patient_id WHERE PREDICT(hospital_dt) > 7", catalog, store)
    assert(outputCols(scored.ir) == Seq("patient_id", "age", "gender", "pregnant", "num_prev_admissions",
      "hematocrit", "neutrophils", "glucose", "bmi", "pulse", "bp", "fetal_hr", "gestation_weeks", StaticAnalyzer.ScoreCol))
  }

  test("missing model inputs are rejected") {
    val err = intercept[IllegalArgumentException] {
      StaticAnalyzer.analyzeSql("SELECT PREDICT(hospital_dt) AS p FROM patient_info", catalog, store)
    }
    assert(err.getMessage.contains("missing columns"))
  }

  test("multiple distinct models are rejected") {
    val store2: String => repro.ml.ModelPipeline = Map(
      "m1" -> TestModels.handTreePipeline, "m2" -> TestModels.handTreePipeline)
    assertThrows[IllegalArgumentException] {
      StaticAnalyzer.analyzeSql(
        "SELECT PREDICT(m1) AS a FROM patient_info WHERE PREDICT(m2) > 1", catalog, store2)
    }
  }

  test("analysis is fast (<10ms, §3.2)") {
    for (_ <- 1 to 3)
      StaticAnalyzer.analyzeSql("SELECT patient_id FROM patient_info WHERE age > 35", catalog, store)
    val res = StaticAnalyzer.analyzeSql(
      "SELECT patient_id FROM patient_info WHERE age > 35 AND pregnant = 1", catalog, store)
    assert(res.elapsedMicros < 10000, s"took ${res.elapsedMicros} us")
  }

  test("category tags: RA vs MLD operators") {
    val res = StaticAnalyzer.analyzeSql(
      """SELECT patient_id, PREDICT(hospital_dt) AS los FROM patient_info
        |JOIN blood_tests ON patient_id = patient_id
        |JOIN prenatal_tests ON patient_id = patient_id""".stripMargin, catalog, store)
    val cats = OpCategory.of(res.ir).toSet
    assert(cats.contains(OpCategory.RA) && cats.contains(OpCategory.MLD))
  }
}
