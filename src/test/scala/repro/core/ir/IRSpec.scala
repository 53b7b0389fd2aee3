package repro.core.ir

import org.scalatest.funsuite.AnyFunSuite
import repro.TestModels
import repro.core.analysis.{PipelineScript, StaticAnalyzer}

class IRSpec extends AnyFunSuite {

  test("categories match the paper's operator classes") {
    val catalog = new SchemaCatalog()
      .register(TableDef("t", Seq("patient_id", "age", "gender", "pregnant", "num_prev_admissions", "hematocrit",
        "neutrophils", "glucose", "bmi", "pulse", "bp", "fetal_hr", "gestation_weeks")))
    val store = Map("m" -> TestModels.handTreePipeline)
    val scan = StaticAnalyzer.analyzeSql("SELECT * FROM t", catalog, store).ir
    assert(OpCategory.of(scan) == Seq(OpCategory.RA))
    // the Fig. 1 shape: relational nodes and one model invocation
    val fig1 = StaticAnalyzer.analyzeSql("SELECT patient_id, PREDICT(m) AS los FROM t WHERE pregnant = 1 AND PREDICT(m) > 7",
      catalog, store).ir
    assert(OpCategory.of(fig1).toSet == Set(OpCategory.RA, OpCategory.MLD))
    assert(OpCategory.of(fig1).count(_ == OpCategory.MLD) == 1)
    // a PyLite script's unknown call is one UDF operator
    val udf = PipelineScript.analyze(
      """df = read("t")
        |df = df[df.age > 35]
        |m = load_model("m")
        |df = m.predict(df)
        |df = normalize(df)""".stripMargin, catalog, store).plans.head.ir
    assert(OpCategory.of(udf).toSet == Set(OpCategory.RA, OpCategory.MLD, OpCategory.UDF))
    assert(OpCategory.of(udf).count(_ == OpCategory.UDF) == 1)
  }

  test("SchemaCatalog registration, lookup, and FK integrity") {
    val cat = new SchemaCatalog()
      .register(TableDef("x", Seq("id", "v"), Some("id")))
      .register(TableDef("y", Seq("id", "w"), Some("id")))
      .registerFk(ForeignKey("x", "id", "y", "id"))
    assert(cat.contains("x") && !cat.contains("z"))
    assert(cat.table("x").primaryKey.contains("id"))
    assertThrows[IllegalArgumentException](cat.table("z"))
    assert(cat.isRowPreserving("x", "id", "y", "id"))
    assert(!cat.isRowPreserving("y", "id", "x", "id")) // FK not declared that way
    assert(!cat.isRowPreserving("x", "id", "y", "w"))  // not the PK
  }
}
