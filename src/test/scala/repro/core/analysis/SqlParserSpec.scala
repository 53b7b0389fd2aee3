package repro.core.analysis

import org.scalatest.funsuite.AnyFunSuite
import repro.TestModels
import repro.core.ir._
import repro.ml.{DecisionTreeModel, FeaturePipeline, Leaf, ModelPipeline}

/** The SQL dialect that `StaticAnalyzer.analyzeSql` accepts, as Spark's parser
  * reads it: each query either builds the expected IR or throws an
  * `IllegalArgumentException` naming the construct outside the dialect. */
class SqlParserSpec extends AnyFunSuite {

  // Two small tables and a model reading `a`.
  private val dialect = new SchemaCatalog()
    .register(TableDef("t", Seq("a", "b")))
    .register(TableDef("u", Seq("a", "c")))
  private val m1 = ModelPipeline("m1", FeaturePipeline(Seq("a"), Nil), None,
    DecisionTreeModel(Leaf(1.0), 1, isClassifier = false))
  private val t = IRScan("t", Seq("a", "b"))
  private def cols(names: String*) = names.map(n => NamedExpr(n, ColRef(n)))

  private def ir(sql: String): IRNode = StaticAnalyzer.analyzeSql(sql, dialect, Map("m1" -> m1)).ir

  private def accepts(cases: (String, IRNode)*): Unit =
    for ((sql, expected) <- cases) assert(ir(sql) == expected, sql)

  private def rejects(cases: (String, String)*): Unit =
    for ((sql, construct) <- cases) {
      val err = intercept[IllegalArgumentException](ir(sql))
      assert(err.getMessage.contains(construct), s"$sql: ${err.getMessage}")
    }

  test("lexer tokenizes identifiers, numbers, strings, operators") {
    accepts(
      // `<>` and `!=` are NOT(=) in Spark's plan; '' escapes a quote
      "SELECT a FROM t WHERE a <> 1 AND b != 2.5 AND b = 'it''s'" -> IRProject(cols("a"), IRFilter(
        And(And(Cmp("<>", ColRef("a"), NumLit(1)), Cmp("<>", ColRef("b"), NumLit(2.5))),
          Cmp("=", ColRef("b"), StrLit("it's"))), t)),
      "SELECT 1 AS one, a AS x FROM t WHERE a >= -1.5e0" -> IRProject(
        Seq(NamedExpr("one", NumLit(1)), NamedExpr("x", ColRef("a"))),
        IRFilter(Cmp(">=", ColRef("a"), NumLit(-1.5)), t)),
    )
  }

  test("lexer rejects garbage") {
    rejects("SELECT @@ FROM t" -> "'@'")
  }

  test("parses the running-example inference query") {
    val catalog = new SchemaCatalog()
      .register(TableDef("patient_info",
        Seq("patient_id", "age", "gender", "pregnant", "num_prev_admissions")))
      .register(TableDef("blood_tests",
        Seq("patient_id", "hematocrit", "neutrophils", "glucose", "bmi", "pulse")))
      .register(TableDef("prenatal_tests", Seq("patient_id", "bp", "fetal_hr", "gestation_weeks")))
    val store = Map("hospital_dt" -> TestModels.handTreePipeline)
    def analyze(sql: String) = StaticAnalyzer.analyzeSql(sql, catalog, store).ir
    val canonical = analyze(
      """SELECT patient_id, PREDICT(hospital_dt) AS los
        |FROM patient_info
        |JOIN blood_tests ON patient_info.patient_id = blood_tests.patient_id
        |JOIN prenatal_tests ON patient_info.patient_id = prenatal_tests.patient_id
        |WHERE pregnant = 1 AND PREDICT(hospital_dt) > 7""".stripMargin)
    // Lower case, INNER and swapped or unqualified join keys read the same.
    assert(analyze(
      """select patient_id, predict(hospital_dt) as los from patient_info
        |inner join blood_tests on blood_tests.patient_id = patient_info.patient_id
        |inner join prenatal_tests on prenatal_tests.patient_id = patient_id
        |where pregnant = 1 and predict(hospital_dt) > 7""".stripMargin) == canonical)
    assert(canonical.collectNodes.collect { case IRScan(table, _) => table } ==
      Seq("patient_info", "blood_tests", "prenatal_tests"))
  }

  test("parses SELECT *") {
    accepts("SELECT * FROM t WHERE b = 'AP01'" -> IRFilter(Cmp("=", ColRef("b"), StrLit("AP01")), t))
  }

  test("parses qualified columns, dropping the qualifier") {
    accepts("SELECT t.a FROM t WHERE t.b < 3" -> IRProject(cols("a"), IRFilter(Cmp("<", ColRef("b"), NumLit(3)), t)))
  }

  test("parses model id as string literal") {
    accepts(
      "SELECT PREDICT('m1') AS p FROM t" -> IRProject(cols("p"), IRPredict("p", m1, t)),
      // lower-case predict, an identifier id, a join, the default score column
      "select a, predict(m1) from t inner join u on u.a = t.a where predict(m1) <= 0.5" -> IRProject(
        cols("a", StaticAnalyzer.ScoreCol),
        IRFilter(Cmp("<=", ColRef(StaticAnalyzer.ScoreCol), NumLit(0.5)),
          IRPredict(StaticAnalyzer.ScoreCol, m1, IRJoin(t, IRScan("u", Seq("a", "c")), "a", "a")))),
    )
  }

  test("rejects trailing tokens and missing clauses") {
    rejects(
      "SELECT a FROM t GROUP BY a" -> "Aggregate",
      "SELECT a" -> "OneRowRelation",
      "FROM t" -> "UnresolvedRelation",
      "SELECT a FROM t WHERE" -> "SubqueryAlias WHERE", // Spark reads WHERE as a table alias
    )
  }

  test("rejects OR (documented out of scope)") {
    rejects(
      "SELECT a FROM t WHERE a = 1 OR a = 2" -> "Or",
      "SELECT a FROM t WHERE NOT a < 1" -> "Not",
    )
  }

  test("literal-on-left comparisons parse") {
    accepts("SELECT a FROM t WHERE 5 < a" -> IRProject(cols("a"), IRFilter(Cmp("<", NumLit(5), ColRef("a")), t)))
  }

  test("rejects joins, aliases, subqueries and names outside the dialect") {
    rejects(
      "SELECT a FROM t LEFT JOIN u ON t.a = u.a" -> "LeftOuter",
      "SELECT x.a FROM t x" -> "SubqueryAlias x",
      "SELECT a FROM (SELECT a FROM t)" -> "SubqueryAlias",
      "SELECT a FROM t WHERE a IN (SELECT a FROM u)" -> "InSubquery",
      "SELECT a FROM db.t" -> "[db, t]",
      "SELECT t.* FROM t" -> "UnresolvedStar",
      "SELECT a FROM t WHERE PREDICT(m1) > 'x'" -> "PREDICT compares with a number",
    )
  }
}
