package repro.core.analysis

import org.apache.spark.sql.catalyst.analysis.{UnresolvedAttribute, UnresolvedRelation, UnresolvedStar}
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.plans.{Inner, UsingJoin}
import org.apache.spark.sql.catalyst.plans.logical.{Filter, Join, JoinHint, LogicalPlan, Project}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestModels
import repro.core.ir._
import repro.ml.{DecisionTreeModel, FeaturePipeline, Leaf, ModelPipeline}
import repro.sparkext.PredictExpression

/** The SQL dialect that `StaticAnalyzer.analyzeSql` accepts, as Spark's parser
  * reads it: each query either builds the expected plan or throws an
  * `IllegalArgumentException` naming the construct outside the dialect. */
class SqlParserSpec extends AnyFunSuite {

  // Two small tables and a model reading `a`.
  private val dialect = new SchemaCatalog()
    .register(TableDef("t", Seq("a", "b")))
    .register(TableDef("u", Seq("a", "c")))
  private val m1 = ModelPipeline("m1", FeaturePipeline(Seq("a"), Nil), None,
    DecisionTreeModel(Leaf(1.0), 1, isClassifier = false))
  private val t = UnresolvedRelation(Seq("t"))
  private def col(n: String) = UnresolvedAttribute.quoted(n)
  private def cols(names: String*) = names.map(col)
  /** `child` with `name` appended, holding m1's prediction. */
  private def predict(name: String, child: LogicalPlan) =
    Project(Seq(UnresolvedStar(None), Alias(PredictExpression(m1, cols("a")), name)()), child)

  private def ir(sql: String): LogicalPlan = StaticAnalyzer.analyzeSql(sql, dialect, Map("m1" -> m1)).ir

  /** Plans compare without the ids Spark gives each alias. */
  private def sameIds(p: LogicalPlan) = p.transformAllExpressions { case a: Alias => Alias(a.child, a.name)(ExprId(0)) }

  private def accepts(cases: (String, LogicalPlan)*): Unit =
    for ((sql, expected) <- cases) assert(sameIds(ir(sql)) == sameIds(expected), sql)

  private def rejects(cases: (String, String)*): Unit =
    for ((sql, construct) <- cases) {
      val err = intercept[IllegalArgumentException](ir(sql))
      assert(err.getMessage.contains(construct), s"$sql: ${err.getMessage}")
    }

  test("lexer tokenizes identifiers, numbers, strings, operators") {
    accepts(
      // `<>` and `!=` are NOT(=) in Spark's plan; '' escapes a quote
      "SELECT a FROM t WHERE a <> 1 AND b != 2.5 AND b = 'it''s'" -> Project(cols("a"), Filter(
        And(And(Not(EqualTo(col("a"), Literal(1))), Not(EqualTo(col("b"), Literal(BigDecimal("2.5"))))),
          EqualTo(col("b"), Literal("it's"))), t)),
      "SELECT 1 AS one, a AS x FROM t WHERE a >= -1.5e0" -> Project(
        Seq(Alias(Literal(1), "one")(), Alias(col("a"), "x")()),
        Filter(GreaterThanOrEqual(col("a"), Literal(-1.5)), t)),
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
    def analyze(sql: String) = sameIds(StaticAnalyzer.analyzeSql(sql, catalog, store).ir)
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
    assert(canonical.collect { case r: UnresolvedRelation => r.tableName } ==
      Seq("patient_info", "blood_tests", "prenatal_tests"))
  }

  test("parses SELECT *") {
    accepts("SELECT * FROM t WHERE b = 'AP01'" -> Filter(EqualTo(col("b"), Literal("AP01")), t))
  }

  test("parses qualified columns, dropping the qualifier") {
    accepts("SELECT t.a FROM t WHERE t.b < 3" -> Project(cols("a"), Filter(LessThan(col("b"), Literal(3)), t)))
  }

  test("parses model id as string literal") {
    accepts(
      "SELECT PREDICT('m1') AS p FROM t" -> Project(cols("p"), predict("p", t)),
      // lower-case predict, an identifier id, a join, the default score column
      "select a, predict(m1) from t inner join u on u.a = t.a where predict(m1) <= 0.5" -> Project(
        cols("a", StaticAnalyzer.ScoreCol),
        Filter(LessThanOrEqual(col(StaticAnalyzer.ScoreCol), Literal(BigDecimal("0.5"))),
          predict(StaticAnalyzer.ScoreCol,
            Join(t, UnresolvedRelation(Seq("u")), UsingJoin(Inner, Seq("a")), None, JoinHint.NONE)))),
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
    accepts("SELECT a FROM t WHERE 5 < a" -> Project(cols("a"), Filter(LessThan(Literal(5), col("a")), t)))
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
