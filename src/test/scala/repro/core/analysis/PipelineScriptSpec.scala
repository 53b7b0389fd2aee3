package repro.core.analysis

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.analysis.{UnresolvedAttribute, UnresolvedRelation}
import org.apache.spark.sql.catalyst.expressions.{Alias, EqualTo, Literal, ScalaUDF}
import org.apache.spark.sql.catalyst.plans.{Inner, UsingJoin}
import org.apache.spark.sql.catalyst.plans.logical.{Filter, Join, LogicalPlan, Project}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestModels
import repro.core.ir._
import repro.sparkext.PredictExpression

class PipelineScriptSpec extends AnyFunSuite {

  private def filterSql(plan: LogicalPlan): Option[String] = plan.collectFirst { case f: Filter => f.condition.sql }

  /** The single opaque UDF of `plan`. */
  private def udfIn(plan: LogicalPlan): ScalaUDF = {
    val Seq(udf) = plan.expressions.flatMap(_.collect { case u: ScalaUDF => u })
    udf
  }

  private val catalog = new SchemaCatalog()
    .register(TableDef("patients", Seq("patient_id", "age", "pregnant", "gender"), Some("patient_id")))
    .register(TableDef("tests", Seq("patient_id", "bp"), Some("patient_id")))

  private val store: String => repro.ml.ModelPipeline = {
    case "hospital_hand_dt" => TestModels.handTreePipeline
    case other              => throw new IllegalArgumentException(s"no model $other")
  }

  private def analyze(script: String) = PipelineScript.analyze(script, catalog, store)

  test("straight-line script: read, filter, project") {
    val res = analyze(
      """df = read("patients")
        |df = df[df.age > 35]
        |df = df[["patient_id", "age"]]
        |return df""".stripMargin)
    assert(!res.fallbackToUdf)
    assert(res.plans.size == 1)
    val ir = res.plans.head.ir
    assert(ir.asInstanceOf[Project].projectList.map(_.name) == Seq("patient_id", "age"))
    assert(filterSql(ir).contains("(age > 35)"))
  }

  test("join and model invocation build Predict over Join") {
    val hospitalCatalog = new SchemaCatalog()
      .register(TableDef("patient_info",
        Seq("patient_id", "age", "gender", "pregnant", "num_prev_admissions"), Some("patient_id")))
      .register(TableDef("labs",
        Seq("patient_id", "hematocrit", "neutrophils", "glucose", "bmi", "pulse",
          "bp", "fetal_hr", "gestation_weeks"), Some("patient_id")))
    val res = PipelineScript.analyze(
      """a = read("patient_info")
        |b = read("labs")
        |j = join(a, b, "patient_id")
        |m = load_model("hospital_hand_dt")
        |out = m.predict(j)""".stripMargin, hospitalCatalog, store)
    val p = res.plans.head.ir.asInstanceOf[Project]
    val Alias(predict: PredictExpression, name) = p.projectList.last
    assert(name == "prediction")
    assert(predict.pipeline == store("hospital_hand_dt"))
    assert(p.child.asInstanceOf[Join].joinType == UsingJoin(Inner, Seq("patient_id")))
  }

  test("predict type-checks model inputs against frame columns") {
    val err = intercept[PipelineScript.AnalysisError](analyze(
      """a = read("patients")
        |m = load_model("hospital_hand_dt")
        |out = m.predict(a)""".stripMargin))
    assert(err.getMessage.contains("lacks model inputs"))
  }

  test("string filters parse") {
    val res = analyze(
      """df = read("patients")
        |df = df[df.gender == "F"]""".stripMargin)
    val f = res.plans.head.ir.asInstanceOf[Filter]
    assert(f.condition == EqualTo(UnresolvedAttribute.quoted("gender"), Literal("F")))
  }

  test("undefined variable is a scope error") {
    val err = intercept[PipelineScript.AnalysisError](analyze("df = nope[nope.age > 3]"))
    assert(err.getMessage.contains("undefined variable"))
  }

  test("filtering a model is a type error") {
    val err = intercept[PipelineScript.AnalysisError](analyze(
      """m = load_model("hospital_hand_dt")
        |df = m[m.age > 3]""".stripMargin))
    assert(err.getMessage.contains("is a model"))
  }

  test("unknown table is an error") {
    assertThrows[PipelineScript.AnalysisError](analyze("""df = read("nope")"""))
  }

  test("unknown column in filter is an error") {
    assertThrows[PipelineScript.AnalysisError](analyze(
      """df = read("patients")
        |df = df[df.nope > 3]""".stripMargin))
  }

  test("unparseable statement reports the line") {
    val err = intercept[PipelineScript.AnalysisError](analyze(
      """df = read("patients")
        |df = df.groupby("age")""".stripMargin))
    assert(err.getMessage.startsWith("line 2"))
  }

  test("unknown call becomes a UDF operator") {
    val res = analyze(
      """df = read("patients")
        |df = normalize(df)""".stripMargin)
    val ir = res.plans.head.ir
    val udf = udfIn(ir)
    assert(udf.udfName.contains("normalize"))
    assert(OpCategory.of(ir).count(_ == OpCategory.UDF) == 1)
    // opaque UDFs analyze fine but are not executable
    assertThrows[UnsupportedOperationException](udf.function.asInstanceOf[Row => Any](Row(1)))
  }

  test("registered UDFs are executable") {
    val udfs = new PipelineScript.UdfRegistry().register("double_age", r => r(1).asInstanceOf[Int] * 2)
    val res = PipelineScript.analyze(
      """df = read("patients")
        |df = double_age(df)""".stripMargin, catalog, store, udfs)
    val udf = udfIn(res.plans.head.ir)
    assert(udf.function.asInstanceOf[Row => Any](Row(1L, 21, 0, "F")) == 42)
  }

  test("conditional produces one plan per execution path") {
    val res = analyze(
      """df = read("patients")
        |if mode > 0:
        |    df = df[df.age > 35]
        |else:
        |    df = df[df.age <= 35]
        |return df""".stripMargin)
    assert(res.plans.size == 2)
    assert(res.plans.map(_.pathCondition) == Seq(Some("mode > 0"), Some("not(mode > 0)")))
    val conds = res.plans.map(_.ir.asInstanceOf[Filter].condition.sql)
    assert(conds == Seq("(age > 35)", "(age <= 35)"))
  }

  test("if without else still has two execution paths (filter applied or not)") {
    val res = analyze(
      """df = read("patients")
        |if mode > 0:
        |    df = df[df.age > 35]
        |return df""".stripMargin)
    assert(res.plans.size == 2)
    assert(res.plans.head.pathCondition.contains("mode > 0"))
    assert(res.plans(0).ir.isInstanceOf[Filter])
    assert(res.plans(1).ir.isInstanceOf[UnresolvedRelation])
  }

  test("an if without else at the end of the script also yields the not-taken path") {
    val res = analyze(
      """df = read("patients")
        |if mode > 0:
        |    df = df[df.age > 35]""".stripMargin)
    assert(res.plans.map(_.pathCondition) == Seq(Some("mode > 0"), Some("not(mode > 0)")))
    assert(res.plans(0).ir.isInstanceOf[Filter])
    assert(res.plans(1).ir.isInstanceOf[UnresolvedRelation])
  }

  test("nested conditions are joined with and") {
    val res = analyze(
      """df = read("patients")
        |if a > 0:
        |    if b > 0:
        |        df = df[df.age > 35]
        |    else:
        |        df = df[df.age <= 35]
        |return df""".stripMargin)
    assert(res.plans.map(_.pathCondition) ==
      Seq(Some("a > 0 and b > 0"), Some("a > 0 and not(b > 0)"), Some("not(a > 0)")))
    assert(res.plans.map(p => filterSql(p.ir)) ==
      Seq(Some("(age > 35)"), Some("(age <= 35)"), None))
  }

  test("a path ends at its first return") {
    val res = analyze(
      """df = read("patients")
        |if mode > 0:
        |    young = df[df.age < 30]
        |    return young
        |return df""".stripMargin)
    assert(res.plans.map(_.ir.isInstanceOf[Filter]) == Seq(true, false))
  }

  test("an error inside an if-block reports its own line") {
    val err = intercept[PipelineScript.AnalysisError](analyze(
      """df = read("patients")
        |if mode > 0:
        |    df = df[df.nope > 3]
        |return df""".stripMargin))
    assert(err.getMessage.startsWith("line 3"))
  }

  test("a model loaded before an if is not resolved again by its pipeline id") {
    val byAlias: String => repro.ml.ModelPipeline = {
      case "dt"  => TestModels.handTreePipeline
      case other => throw new IllegalArgumentException(s"no model $other")
    }
    val res = PipelineScript.analyze(
      """df = read("patients")
        |m = load_model("dt")
        |if mode > 0:
        |    df = df[df.age > 35]
        |return df""".stripMargin, catalog, byAlias)
    assert(res.plans.size == 2)
  }

  test("an unquoted non-numeric literal is an analysis error with its line") {
    val err = intercept[PipelineScript.AnalysisError](analyze(
      """df = read("patients")
        |df = df[df.age > abc]""".stripMargin))
    assert(err.getMessage.startsWith("line 2"))
  }

  test("a model id the store cannot resolve is an analysis error with its line") {
    val err = intercept[PipelineScript.AnalysisError](analyze(
      """df = read("patients")
        |m = load_model("x")""".stripMargin))
    assert(err.getMessage.startsWith("line 2"))
    assert(err.getCause.isInstanceOf[IllegalArgumentException])
  }

  test("loops trigger whole-script UDF fallback (§3.2)") {
    val res = analyze(
      """df = read("patients")
        |for row in df:
        |    df = df[df.age > 1]""".stripMargin)
    assert(res.fallbackToUdf)
    assert(res.plans.isEmpty)
  }

  test("while loops also fall back") {
    assert(analyze("while x > 0:").fallbackToUdf)
  }

  test("comments and blank lines are ignored") {
    val res = analyze(
      """# load the data
        |df = read("patients")  # inline comment
        |
        |return df""".stripMargin)
    assert(res.plans.head.ir == UnresolvedRelation(Seq("patients")))
  }

  test("static analysis completes in under 10 ms (paper §3.2)") {
    // warm up classes, then measure
    for (_ <- 1 to 3) analyze("""df = read("patients")
                                |df = df[df.age > 35]
                                |return df""".stripMargin)
    val straight =
      """df = read("patients")
        |df = df[df.age > 35]
        |df = df[["patient_id", "age", "pregnant"]]
        |return df""".stripMargin
    val conditional =
      """df = read("patients")
        |if mode > 0:
        |    df = df[df.age > 35]
        |else:
        |    df = df[df.age <= 35]
        |df = df[["patient_id", "age", "pregnant"]]
        |return df""".stripMargin
    for (script <- Seq(straight, conditional)) {
      val res = analyze(script)
      assert(res.elapsedMicros < 10000, s"analysis took ${res.elapsedMicros} us")
    }
  }

  test("script with no frame fails") {
    assertThrows[PipelineScript.AnalysisError](analyze("""m = load_model("hospital_hand_dt")"""))
  }
}
