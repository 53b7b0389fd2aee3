package repro.core.opt

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.{Join, LogicalPlan}
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec, TestModels, TestTables}
import repro.core.analysis.StaticAnalyzer
import repro.core.codegen.RuntimeCodeGenerator
import repro.core.ir._
import repro.ml._
import repro.sparkext.{InlinedTrees, ModelRegistry, PredictExpression, Raven, RavenRules}

/** The IR's relational rewrites, and the model rewrites Raven's Catalyst
  * rules apply to the lowered IR: the model-level tests assert on Spark's
  * optimized plan of the lowered query.
  */
class CrossOptimizerSpec extends AnyFunSuite with SparkSpec {

  private val catalog = TestTables.hospitalCatalog
  private def store: String => ModelPipeline = Map(
    "hospital_dt" -> TestModels.handTreePipeline,
    "flight_lr" -> TestModels.flightLrPipeline,
  )

  private val fig1Sql =
    """SELECT patient_id, PREDICT(hospital_dt) AS los
      |FROM patient_info
      |JOIN blood_tests ON patient_info.patient_id = blood_tests.patient_id
      |JOIN prenatal_tests ON patient_info.patient_id = prenatal_tests.patient_id
      |WHERE pregnant = 1 AND PREDICT(hospital_dt) > 7""".stripMargin

  private def fig1Ir: IRNode = StaticAnalyzer.analyzeSql(fig1Sql, catalog, store).ir

  private def fig0Sql = fig1Sql.replace("pregnant = 1", "pregnant = 0")

  /** The plan lowered to a session's temp views; by default the Raven-optimized session. */
  private def run(ir: IRNode, session: SparkSession = TestTables.optimized): DataFrame =
    RuntimeCodeGenerator.toDataFrame(ir, session)

  /** Spark's optimized plan of the IR-optimized, lowered query. */
  private def sparkPlan(ir: IRNode): LogicalPlan = run(CrossOptimizer.optimize(ir, catalog)).queryExecution.optimizedPlan

  private def predictsIn(plan: LogicalPlan): Seq[PredictExpression] =
    plan.flatMap(_.expressions.flatMap(_.collect { case p: PredictExpression => p }))

  private def withIntegrity[A](f: => A): A = {
    RavenRules.RavenIntegrity.declareRowPreserving("patient_id", "patient_id")
    try f
    finally RavenRules.RavenIntegrity.clear()
  }

  test("filter pushdown moves pregnant=1 to the patient_info side of the joins") {
    val pushed = CrossOptimizer.FilterPushdown(fig1Ir)
    val filterOnScan = pushed.collectNodes.collectFirst {
      case IRFilter(p, IRScan("patient_info", _)) => p.toSql
    }
    assert(filterOnScan.contains("(pregnant = 1)"))
  }

  test("filter pushdown keeps the score predicate above the predict") {
    val pushed = CrossOptimizer.FilterPushdown(fig1Ir)
    val above = pushed.collectNodes.collectFirst { case IRFilter(p, _: IRPredict) => p.toSql }
    assert(above.contains("(los > 7)"))
  }

  test("filter pushdown merges stacked filters") {
    val ir = IRFilter(Cmp("<", ColRef("age"), NumLit(50)),
      IRFilter(Cmp(">", ColRef("age"), NumLit(20)), IRScan("patient_info", catalog.table("patient_info").columns)))
    val pushed = CrossOptimizer.FilterPushdown(ir)
    assert(pushed.collectNodes.count(_.isInstanceOf[IRFilter]) == 1)
  }

  test("filter pushdown renames through project aliases") {
    val ir = IRFilter(Cmp(">", ColRef("years"), NumLit(30)),
      IRProject(Seq(NamedExpr("years", ColRef("age")), NamedExpr("patient_id", ColRef("patient_id"))),
        IRScan("patient_info", catalog.table("patient_info").columns)))
    val pushed = CrossOptimizer.FilterPushdown(ir)
    val below = pushed.collectNodes.collectFirst { case IRFilter(p, _: IRScan) => p.toSql }
    assert(below.contains("(age > 30)"))
  }

  test("predicate-based model pruning shrinks the tree under pregnant=1") {
    TestTables.withRules(Raven.rules(inlineMaxNodes = 0)) {
      val predicts = predictsIn(sparkPlan(fig1Ir))
      val root = TestModels.handTreePipeline.id
      assert(predicts.nonEmpty && predicts.forall(p => p.modelId != root && ModelRegistry.rootOf(p.modelId) == root))
      val pruned = ModelRegistry.get(predicts.head.modelId).model.asInstanceOf[DecisionTreeModel]
      assert(pruned.nodeCount < TestModels.handTree.nodeCount)
    }
  }

  test("pruning + projection pushdown drop unused raw columns (pregnant=0 needs no bp)") {
    TestTables.withRules(Raven.rules(inlineMaxNodes = 0)) {
      val predicts = predictsIn(sparkPlan(StaticAnalyzer.analyzeSql(fig0Sql, catalog, store).ir))
      // pregnant=0 branch of the hand tree uses only age
      assert(predicts.nonEmpty && predicts.forall(p => ModelRegistry.get(p.modelId).inputCols == Seq("age")))
      assert(predicts.forall(_.children.size == 1))
    }
  }

  test("projection pruning narrows scans to needed columns") {
    val sql = """SELECT patient_id, bp FROM patient_info
                |JOIN prenatal_tests ON patient_info.patient_id = prenatal_tests.patient_id
                |WHERE age > 40""".stripMargin
    val plan = CrossOptimizer.optimize(StaticAnalyzer.analyzeSql(sql, catalog, store).ir, catalog)
    val scans = plan.collectNodes.collect { case IRScan(t, cols) => t -> cols }.toMap
    assert(scans == Map("patient_info" -> Seq("patient_id", "age"), "prenatal_tests" -> Seq("patient_id", "bp")))
  }

  test("join elimination drops FK joins that contribute nothing (pregnant=0: no prenatal columns)") {
    withIntegrity {
      val plan = sparkPlan(StaticAnalyzer.analyzeSql(fig0Sql, catalog, store).ir)
      // the pruned model reads only age, so blood_tests and prenatal_tests supply nothing
      assert(plan.collect { case j: Join => j }.isEmpty, s"plan:\n$plan")
      assert(!plan.flatMap(_.output).map(_.name).exists(Set("bp", "hematocrit")))
    }
  }

  test("join elimination requires a declared FK") {
    val noFk = new SchemaCatalog() // same tables, no FK declarations
    Seq("patient_info", "blood_tests", "prenatal_tests").foreach(t => noFk.register(catalog.table(t)))
    val sql = """SELECT patient_id, age FROM patient_info
                |JOIN prenatal_tests ON patient_info.patient_id = prenatal_tests.patient_id""".stripMargin
    def scans(c: SchemaCatalog) =
      CrossOptimizer.optimize(StaticAnalyzer.analyzeSql(sql, c, store).ir, c).collectNodes.collect { case IRScan(t, _) => t }
    assert(scans(noFk).contains("prenatal_tests"))
    assert(scans(catalog) == Seq("patient_info"))
  }

  test("model inlining turns small trees into relational CASE logic") {
    val plan = sparkPlan(fig1Ir)
    assert(predictsIn(plan).isEmpty, s"plan:\n$plan")
    // one inlined node of the same variant in place of each predict the plan has without inlining
    val inlined = plan.flatMap(_.expressions.flatMap(_.collect { case e: InlinedTrees => e }))
    val predicts = TestTables.withRules(Raven.rules(inlineMaxNodes = 0))(predictsIn(sparkPlan(fig1Ir)))
    assert(inlined.nonEmpty && inlined.map(_.variantId) == predicts.map(_.modelId), s"plan:\n$plan")
  }

  test("model inlining respects the node budget") {
    TestTables.withRules(Raven.rules(inlineMaxNodes = 2)) {
      assert(predictsIn(sparkPlan(fig1Ir)).nonEmpty)
    }
  }

  test("NN translation replaces Predict with an LA operator") {
    val plan = CrossOptimizer.NNTranslation(CrossOptimizer.optimize(fig1Ir, catalog))
    val nn = plan.collectNodes.collectFirst { case p: IRNNPredict => p }
    assert(nn.isDefined)
    assert(nn.get.category == OpCategory.LA)
  }

  // ---- end-to-end semantics ------------------------------------------------

  /** The unoptimized IR lowered to the session without Raven's rules. */
  private def baselineOf(sql: String): DataFrame =
    run(StaticAnalyzer.analyzeSql(sql, catalog, store).ir, TestTables.reference)

  test("optimized plans return identical results to the unoptimized plan") {
    val baseline = baselineOf(fig1Sql)
    assert(baseline.count() > 0, "query must select some rows to be meaningful")
    val optimized = CrossOptimizer.optimize(fig1Ir, catalog)
    TestTables.assertSameRows(baseline, run(optimized))
    TestTables.assertSameRows(baseline, run(fig1Ir)) // Catalyst rewrites alone
    TestTables.withRules(Raven.rules(inlineMaxNodes = 0)) {
      TestTables.assertSameRows(baseline, run(optimized))
    }
    TestTables.assertSameRows(baseline, run(CrossOptimizer.NNTranslation(optimized)), eps = 1e-4)
  }

  test("pregnant=0 variant (join eliminated) returns identical results") {
    val sql = fig0Sql.replace("> 7", "> 3")
    val baseline = baselineOf(sql)
    assert(baseline.count() > 0)
    withIntegrity {
      TestTables.assertSameRows(baseline, run(CrossOptimizer.optimize(StaticAnalyzer.analyzeSql(sql, catalog, store).ir, catalog)))
    }
  }

  test("fully-inlined plan validates against the DuckDB oracle") {
    val df = run(CrossOptimizer.optimize(fig1Ir, catalog))
    assert(predictsIn(df.queryExecution.optimizedPlan).isEmpty, "the model must be inlined")
    // the reference: the unoptimized query, with the original model as CASE
    val sqlRef = RuntimeCodeGenerator.toSql(fig1Ir)
    assert(sqlRef.isDefined, "a tree predict must render as portable SQL")
    val tables = TestTables.tables(spark)
    Oracle.assertEquivalent(
      df, sqlRef.get,
      "patient_info" -> tables("patient_info"),
      "blood_tests" -> tables("blood_tests"),
      "prenatal_tests" -> tables("prenatal_tests"),
    )
  }

  test("flight query: categorical predicate prunes the one-hot block and enables projection") {
    val sql = "SELECT flight_id, PREDICT(flight_lr) AS p FROM flights WHERE dest = 'AP00'"
    val ir = StaticAnalyzer.analyzeSql(sql, catalog, store).ir
    val predicts = predictsIn(sparkPlan(ir))
    assert(predicts.nonEmpty)
    val derived = ModelRegistry.get(predicts.head.modelId)
    assert(!derived.inputCols.contains("dest"))
    assert(derived.pipeline.numFeatures < TestModels.flightLrPipeline.pipeline.numFeatures)
    // semantics preserved
    TestTables.assertSameRows(baselineOf(sql), run(CrossOptimizer.optimize(ir, catalog)), eps = 1e-6)
  }
}
