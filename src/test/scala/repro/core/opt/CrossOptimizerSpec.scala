package repro.core.opt

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.analysis.UnresolvedAttribute
import org.apache.spark.sql.catalyst.expressions.{Expression, GreaterThan, Literal}
import org.apache.spark.sql.catalyst.plans.logical.{Filter, Join, LeafNode, LogicalPlan}
import org.apache.spark.sql.execution.FileSourceScanExec
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, OracleSql, SparkSpec, TestModels, TestTables}
import repro.core.analysis.{PipelineScript, StaticAnalyzer}
import repro.core.analysis.StaticAnalyzer.SqlAnalysis
import repro.core.ir._
import repro.ml._
import repro.sparkext.{InlinedTrees, PredictExpression, Raven, RavenRules, RavenRuntime}

/** The rewrites Catalyst applies to the analyzers' plans, Spark's relational
  * ones and Raven's model rules alike: the tests assert on Spark's optimized
  * plan of the analyzed query. Join elimination is checked on the parquet
  * tables, whose base relations name declared tables.
  */
class CrossOptimizerSpec extends AnyFunSuite with SparkSpec {

  private val catalog = TestTables.hospitalCatalog
  private def store: String => ModelPipeline = Map(
    "hospital_dt" -> TestModels.handTreePipeline,
    "flight_lr" -> TestModels.flightLrPipeline,
    "hospital_rf10" -> TestModels.hospitalForest10Pipeline,
    "hospital_rf10_scaled" -> TestModels.hospitalForest10Pipeline.copy(
      id = "hospital_rf10_scaled", scaler = Some(TestModels.hospitalScaler)),
  )

  /** Raven's rules without model inlining. */
  private val noInlining = Raven.rules.filterNot(_ == RavenRules.ModelInlining)

  private val fig1Sql =
    """SELECT patient_id, PREDICT(hospital_dt) AS los
      |FROM patient_info
      |JOIN blood_tests ON patient_info.patient_id = blood_tests.patient_id
      |JOIN prenatal_tests ON patient_info.patient_id = prenatal_tests.patient_id
      |WHERE pregnant = 1 AND PREDICT(hospital_dt) > 7""".stripMargin

  private def analyze(sql: String): SqlAnalysis = StaticAnalyzer.analyzeSql(sql, catalog, store)

  private def fig1Ir: SqlAnalysis = analyze(fig1Sql)

  private def fig0Sql = fig1Sql.replace("pregnant = 1", "pregnant = 0")

  /** The plan run on a session's temp views; by default the Raven-optimized session. */
  private def run(a: SqlAnalysis, session: SparkSession = TestTables.optimized): DataFrame =
    Raven.run(session, a.ir)

  /** Spark's optimized plan of the analyzed query. */
  private def sparkPlan(a: SqlAnalysis, session: SparkSession = TestTables.optimized): LogicalPlan =
    run(a, session).queryExecution.optimizedPlan

  private def predictsIn(plan: LogicalPlan): Seq[PredictExpression] =
    plan.flatMap(_.expressions.flatMap(_.collect { case p: PredictExpression => p }))

  private def joinsIn(plan: LogicalPlan): Int = plan.collect { case j: Join => j }.size

  /** Filter conditions sitting directly on a base relation, without expression ids. */
  private def scanFilters(plan: LogicalPlan): Seq[String] =
    plan.collect { case Filter(c, _: LeafNode) => c.toString.replaceAll("#\\d+L?", "") }

  test("filter pushdown moves pregnant=1 to the patient_info side of the joins") {
    // Catalyst's pushdown on the analyzed plan; the score predicate, which reads
    // the predict, stays at the join that brings the model's inputs together
    val plan = sparkPlan(fig1Ir, TestTables.parquetOptimized)
    assert(scanFilters(plan).exists(c => c.contains("(pregnant = 1)") && !c.contains("raven")), s"plan:\n$plan")
    val model = (e: Expression) => e.exists(x => x.isInstanceOf[PredictExpression] || x.isInstanceOf[InlinedTrees])
    assert(plan.exists {
      case Filter(c, child) => model(c) && joinsIn(child) > 0
      case Join(_, _, _, c, _) => c.exists(model)
      case _ => false
    }, s"plan:\n$plan")
  }

  test("filter pushdown merges stacked filters") {
    val stacked = PipelineScript.analyze(
      """df = read("patient_info")
        |df = df[df.age > 20]
        |df = df[df.age < 50]""".stripMargin, catalog, store).plans.head.ir
    val plan = Raven.run(TestTables.parquetOptimized, stacked).queryExecution.optimizedPlan
    assert(plan.collect { case f: Filter => f }.size == 1 && scanFilters(plan).size == 1, s"plan:\n$plan")
  }

  test("filter pushdown renames through project aliases") {
    val renamed = analyze("SELECT age AS years, patient_id FROM patient_info").ir
    val ir = Filter(GreaterThan(UnresolvedAttribute.quoted("years"), Literal(30)), renamed)
    val plan = Raven.run(TestTables.parquetOptimized, ir).queryExecution.optimizedPlan
    assert(scanFilters(plan).exists(_.contains("(age > 30)")), s"plan:\n$plan")
  }

  test("predicate-based model pruning shrinks the tree under pregnant=1") {
    TestTables.withRules(noInlining) {
      val predicts = predictsIn(sparkPlan(fig1Ir))
      val root = TestModels.handTreePipeline.id
      assert(predicts.nonEmpty && predicts.forall(p => p.modelId != root && p.derivation.map(_._1.id).contains(root)))
      val pruned = predicts.head.pipeline.model.asInstanceOf[DecisionTreeModel]
      assert(pruned.nodeCount < TestModels.handTree.nodeCount)
    }
  }

  test("pruning + projection pushdown drop unused raw columns (pregnant=0 needs no bp)") {
    TestTables.withRules(noInlining) {
      val predicts = predictsIn(sparkPlan(analyze(fig0Sql)))
      // pregnant=0 branch of the hand tree uses only age
      assert(predicts.nonEmpty && predicts.forall(p => p.pipeline.inputCols == Seq("age")))
      assert(predicts.forall(_.children.size == 1))
    }
  }

  test("projection pruning narrows scans to needed columns") {
    val sql = """SELECT patient_id, bp FROM patient_info
                |JOIN prenatal_tests ON patient_info.patient_id = prenatal_tests.patient_id
                |WHERE age > 40""".stripMargin
    val df = run(analyze(sql), TestTables.parquetOptimized)
    val scans = df.queryExecution.sparkPlan.collect { case s: FileSourceScanExec => s.requiredSchema.fieldNames.toSeq }
    assert(scans.toSet == Set(Seq("patient_id", "age"), Seq("patient_id", "bp")), s"scans: $scans")
  }

  test("join elimination drops FK joins that contribute nothing (pregnant=0: no prenatal columns)") {
    TestTables.withIntegrity(TestTables.parquetOptimized) {
      val plan = sparkPlan(analyze(fig0Sql), TestTables.parquetOptimized)
      // the pruned model reads only age, so blood_tests and prenatal_tests supply nothing
      assert(joinsIn(plan) == 0, s"plan:\n$plan")
      assert(!plan.flatMap(_.output).map(_.name).exists(Set("bp", "hematocrit")))
    }
  }

  test("join elimination requires a declared FK") {
    val noFk = new SchemaCatalog() // same tables, no FK declarations
    Seq("patient_info", "blood_tests", "prenatal_tests").foreach(t => noFk.register(catalog.table(t)))
    val sql = """SELECT patient_id, age FROM patient_info
                |JOIN prenatal_tests ON patient_info.patient_id = prenatal_tests.patient_id""".stripMargin
    def joins(c: SchemaCatalog) = TestTables.withIntegrity(TestTables.parquetOptimized, c) {
      joinsIn(sparkPlan(StaticAnalyzer.analyzeSql(sql, c, store), TestTables.parquetOptimized))
    }
    assert(joins(noFk) == 1)
    assert(joins(catalog) == 0)
  }

  test("model inlining turns small trees into relational CASE logic") {
    val plan = sparkPlan(fig1Ir)
    assert(predictsIn(plan).isEmpty, s"plan:\n$plan")
    // one inlined node of the same variant in place of each predict the plan has without inlining
    val inlined = plan.flatMap(_.expressions.flatMap(_.collect { case e: InlinedTrees => e }))
    val predicts = TestTables.withRules(noInlining)(predictsIn(sparkPlan(fig1Ir)))
    assert(inlined.nonEmpty && inlined.map(_.variantId) == predicts.map(_.modelId), s"plan:\n$plan")
  }

  test("every tree or forest without a scaler inlines, pruned or not") {
    val rf10 = fig1Sql.replace("hospital_dt", "hospital_rf10")
    val unfiltered = rf10.substring(0, rf10.indexOf("WHERE"))
    // unpruned and pruned for pregnant = 1
    for (sql <- Seq(unfiltered, rf10)) {
      val plan = sparkPlan(analyze(sql))
      assert(predictsIn(plan).isEmpty && plan.exists(_.expressions.exists(_.exists(_.isInstanceOf[InlinedTrees]))),
        s"plan:\n$plan")
    }
    // a scaler sits between the features and the trees: a per-row predict
    val scaled = sparkPlan(analyze(unfiltered.replace("rf10", "rf10_scaled")))
    assert(predictsIn(scaled).map(_.modelId) == Seq("hospital_rf10_scaled"), s"plan:\n$scaled")
  }

  // ---- end-to-end semantics ------------------------------------------------

  /** The analyzed plan run on the session without Raven's rules. */
  private def baselineOf(sql: String): DataFrame = run(analyze(sql), TestTables.reference)

  test("optimized plans return identical results to the unoptimized plan") {
    val baseline = baselineOf(fig1Sql)
    assert(baseline.count() > 0, "query must select some rows to be meaningful")
    TestTables.assertSameRows(baseline, run(fig1Ir))
    TestTables.withRules(noInlining) {
      TestTables.assertSameRows(baseline, run(fig1Ir))
    }
    // the NN-translated pipeline scores the cohort the query's relational filter selects
    val mp = TestModels.handTreePipeline
    val nn = NNPipelineModel(NNTranslator.translatePipeline(mp), mp.pipeline)
    val cohort = run(analyze(fig1Sql.replace("patient_id, PREDICT(hospital_dt) AS los", "*")
      .replace(" AND PREDICT(hospital_dt) > 7", "")))
    TestTables.assertSameRows(baseline,
      RavenRuntime.predictNNBatch(cohort, nn, "los").where("los > 7").select("patient_id", "los"), eps = 1e-4)
  }

  test("pregnant=0 variant (join eliminated) returns identical results") {
    val ir = analyze(fig0Sql.replace("> 7", "> 3"))
    val baseline = run(ir, TestTables.parquetReference)
    assert(baseline.count() > 0)
    TestTables.withIntegrity(TestTables.parquetOptimized) {
      val df = run(ir, TestTables.parquetOptimized)
      assert(joinsIn(df.queryExecution.optimizedPlan) == 0)
      TestTables.assertSameRows(baseline, df)
    }
  }

  test("fully-inlined plan validates against the DuckDB oracle") {
    val df = run(fig1Ir)
    assert(predictsIn(df.queryExecution.optimizedPlan).isEmpty, "the model must be inlined")
    // the reference: the unoptimized query, with the original model as CASE
    val sqlRef = OracleSql.toSql(fig1Ir.ir)
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
    val ir = analyze(sql)
    val predicts = predictsIn(sparkPlan(ir))
    assert(predicts.nonEmpty)
    val derived = predicts.head.pipeline
    assert(!derived.inputCols.contains("dest"))
    assert(derived.pipeline.numFeatures < TestModels.flightLrPipeline.pipeline.numFeatures)
    // semantics preserved
    TestTables.assertSameRows(baselineOf(sql), run(ir), eps = 1e-6)
  }
}
