package repro.sparkext

import org.apache.spark.sql.{AnalysisException, DataFrame, SparkSession, functions}
import org.apache.spark.sql.catalyst.plans.logical.{Join, LogicalPlan}
import org.scalatest.BeforeAndAfterEach
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, OracleSql, SparkSpec, TestModels, TestTables}
import repro.core.ir.{ForeignKey, SchemaCatalog}
import repro.data.HospitalData
import repro.ml._

/** Catalyst-level integration: the `raven_predict` expression plus the
  * optimizer rules injected via `extraOptimizations`.
  */
class RavenSparkSpec extends AnyFunSuite with SparkSpec with BeforeAndAfterEach {

  private lazy val tables = TestTables.tables(spark)

  override def beforeEach(): Unit = {
    super.beforeEach()
    tables // force registration of temp views
    Raven.installRuntimeOnly(spark)
    Raven.deploy(TestModels.handTreePipeline)
    Raven.deploy(TestModels.flightLrPipeline)
    spark.experimental.extraOptimizations = Nil
    RavenRules.RavenIntegrity.clear(spark)
  }

  override def afterEach(): Unit = {
    spark.experimental.extraOptimizations = Nil
    super.afterEach()
  }

  private def withRules[A](rules: Seq[org.apache.spark.sql.catalyst.rules.Rule[LogicalPlan]])(f: => A): A = {
    spark.experimental.extraOptimizations = rules
    try f
    finally spark.experimental.extraOptimizations = Nil
  }

  private def predictsIn(plan: LogicalPlan): Seq[PredictExpression] =
    plan.collect { case p => p.expressions.flatMap(_.collect { case e: PredictExpression => e }) }.flatten

  private lazy val handSql = {
    Raven.deploy(TestModels.handTreePipeline)
    Raven.predictSql(TestModels.handTreePipeline.id)
  }

  test("raven_predict evaluates the deployed pipeline per row") {
    val df = spark.sql(s"SELECT patient_id, $handSql AS score FROM patients_all")
    val got = df.collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    HospitalData.localJoined(TestTables.HospitalN.toInt).take(200).foreach { j =>
      val want = TestModels.handTreePipeline.predictRaw(HospitalData.rawValues(j))
      assert(got(j.patient_id) == want)
    }
  }

  test("raven_predict validates arity and model id") {
    assertThrows[Exception](spark.sql("SELECT raven_predict('hospital_hand_dt', age) FROM patients_all").collect())
    assertThrows[Exception](spark.sql("SELECT raven_predict('nope') FROM patients_all").collect())
  }

  /** A one-split tree over the single numeric column `col`: 1.0 below `threshold`, 2.0 from it. */
  private def oneSplit(id: String, col: String, threshold: Double): ModelPipeline =
    ModelPipeline(id, FeaturePipeline(Seq(col), Nil), None,
      DecisionTreeModel(Split(0, threshold, Leaf(1.0), Leaf(2.0)), 1, isClassifier = false))

  test("raven_predict rejects TIMESTAMP and DATE arguments at analysis") {
    Raven.deploy(oneSplit("one_split", "x", 1e12))
    for ((arg, tpe) <- Seq("TIMESTAMP'2024-01-01 00:00:00'" -> "TIMESTAMP", "DATE'2024-01-01'" -> "DATE")) {
      val err = intercept[AnalysisException](spark.sql(s"SELECT raven_predict('one_split', $arg)"))
      assert(err.getMessage.contains(s"argument 2 has type $tpe"), err.getMessage)
    }
  }

  test("a strict bound on a BIGINT above 2^53 prunes as the model reads it") {
    val big = 1L << 53
    val dir = java.nio.file.Files.createTempDirectory("raven-bigint")
    try {
      val path = dir.resolve("l").toString
      spark.range(big + 1, big + 4).selectExpr("id AS l").coalesce(1).write.parquet(path)
      // 2^53 + 3 reads as 2^53 + 4: it scores 2.0, though l < 2^53 + 4
      val mp = oneSplit("bigint_split", "l", (big + 4).toDouble)
      Raven.deploy(mp)
      val sql = s"SELECT l, ${Raven.predictSql(mp.id)} AS s FROM bigint_l WHERE l < ${big + 4}"
      def rows(s: SparkSession): DataFrame = { s.read.parquet(path).createOrReplaceTempView("bigint_l"); s.sql(sql) }
      val reference = rows(TestTables.reference)
      assert(reference.collect().map(_.getDouble(1)).toSet == Set(1.0, 2.0))
      TestTables.assertSameRows(rows(TestTables.optimized), reference, eps = 0.0)
    } finally org.apache.spark.network.util.JavaUtils.deleteRecursively(dir.toFile)
  }

  test("a string cast of a number licenses no category: CAST(m AS STRING) = '1.50' on DECIMAL 1.50") {
    val dir = java.nio.file.Files.createTempDirectory("raven-decimal")
    try {
      val path = dir.resolve("m").toString
      spark.range(1).selectExpr("id", "CAST(1.50 AS DECIMAL(4,2)) AS m").coalesce(1).write.parquet(path)
      // the model reads the DECIMAL as the double 1.5, category "1.5": 1.0; category "1.50" would give 2.0
      val mp = ModelPipeline("decimal_cat", FeaturePipeline(Nil, Seq(OneHotEncoder("m", IndexedSeq("1.5", "1.50")))), None,
        DecisionTreeModel(Split(1, 0.5, Leaf(1.0), Leaf(2.0)), 2, isClassifier = false))
      Raven.deploy(mp)
      val sql = s"SELECT id, ${Raven.predictSql(mp.id)} AS s FROM decimal_m WHERE CAST(m AS STRING) = '1.50'"
      def rows(s: SparkSession): DataFrame = { s.read.parquet(path).createOrReplaceTempView("decimal_m"); s.sql(sql) }
      val reference = rows(TestTables.reference)
      assert(reference.collect().map(_.getDouble(1)).toSeq == Seq(1.0))
      TestTables.assertSameRows(rows(TestTables.optimized), reference, eps = 0.0)
    } finally org.apache.spark.network.util.JavaUtils.deleteRecursively(dir.toFile)
  }

  test("predicate pruning rule specializes the model below a filter") {
    withRules(Seq(RavenRules.ModelSpecialization)) {
      val df = spark.sql(
        s"SELECT patient_id, $handSql AS score FROM patients_all WHERE pregnant = 1")
      val predicts = predictsIn(df.queryExecution.optimizedPlan)
      assert(predicts.nonEmpty)
      assert(predicts.forall(_.modelId != TestModels.handTreePipeline.id), s"not specialized: $predicts")
      val derived = predicts.head.pipeline
      assert(derived.model.asInstanceOf[DecisionTreeModel].nodeCount < TestModels.handTree.nodeCount)
      // results identical to the unoptimized run
      val got = df.collect().map(r => (r.getLong(0), r.getDouble(1))).sortBy(_._1)
      spark.experimental.extraOptimizations = Nil
      val want = spark.sql(
        s"SELECT patient_id, $handSql AS score FROM patients_all WHERE pregnant = 1")
        .collect().map(r => (r.getLong(0), r.getDouble(1))).sortBy(_._1)
      assert(got.toSeq == want.toSeq)
    }
  }

  test("sibling conjuncts in the same filter license pruning (score > 7 AND pregnant = 1)") {
    withRules(Seq(RavenRules.ModelSpecialization)) {
      val df = spark.sql(
        s"SELECT patient_id FROM patients_all WHERE pregnant = 1 AND $handSql > 7")
      val predicts = predictsIn(df.queryExecution.optimizedPlan)
      assert(predicts.nonEmpty && predicts.forall(_.modelId != TestModels.handTreePipeline.id))
      // semantics: same rows as without rules
      val got = df.collect().map(_.getLong(0)).sorted
      spark.experimental.extraOptimizations = Nil
      val want = spark.sql(
        s"SELECT patient_id FROM patients_all WHERE pregnant = 1 AND $handSql > 7")
        .collect().map(_.getLong(0)).sorted
      assert(got.toSeq == want.toSeq)
    }
  }

  test("range predicates prune too (bp >= 140 collapses the bp split)") {
    withRules(Seq(RavenRules.ModelSpecialization)) {
      val df = spark.sql(
        s"SELECT patient_id, $handSql AS score FROM patients_all WHERE pregnant = 1 AND bp >= 140")
      val predicts = predictsIn(df.queryExecution.optimizedPlan)
      val derived = predicts.head.pipeline
      val tree = derived.model.asInstanceOf[DecisionTreeModel]
      assert(tree.nodeCount == 3, s"expected only the age split, got ${tree.nodeCount} nodes")
    }
  }

  test("a narrowing cast licenses no pruning; age > 35.5 still prunes") {
    // 1.0 below bp 140.5, 2.0 from it
    val bpSplit = DecisionTreeModel(Split(HospitalData.pipeline.numericIndex("bp"), 140.5, Leaf(1.0), Leaf(2.0)),
      HospitalData.pipeline.numFeatures, isClassifier = false)
    Raven.deploy(ModelPipeline("bp_split", HospitalData.pipeline, None, bpSplit))
    val predict = Raven.predictSql("bp_split")
    // the scores of `sql`, after checking its rows against the session without Raven's rules
    def scores(sql: String): Set[Double] = {
      TestTables.assertSameRows(TestTables.optimized.sql(sql), TestTables.reference.sql(sql), eps = 0.0)
      TestTables.reference.sql(sql).collect().map(_.getDouble(1)).toSet
    }
    // CAST(bp AS INT) = 140 holds for bp in [140, 141): the split at 140.5 stays
    assert(scores(s"SELECT patient_id, $predict AS s FROM patients_all WHERE CAST(bp AS INT) = 140") == Set(1.0, 2.0))
    // the model reads 140 where bp is in [140.7, 141)
    val intBp = predict.replace(", bp,", ", CAST(bp AS INT),")
    assert(intBp != predict)
    assert(scores(s"SELECT patient_id, $intBp AS s FROM patients_all WHERE bp >= 140.7") == Set(1.0, 2.0))
    // Spark reads age > 35.5 on the INT column as age > 35
    val aged = s"SELECT patient_id, $handSql AS s FROM patients_all WHERE pregnant = 1 AND age > 35.5"
    assert(scores(aged).nonEmpty)
    withRules(Seq(RavenRules.ModelSpecialization)) {
      val tree = predictsIn(spark.sql(aged).queryExecution.optimizedPlan).head.pipeline.model
      assert(tree.asInstanceOf[DecisionTreeModel].nodeCount == 3, s"expected only the bp split, got $tree")
    }
  }

  test("a DECIMAL input scores the same per row, inlined and in predictRaw, bit for bit") {
    val mp = TestModels.hospitalTreePipeline
    Raven.deploy(mp)
    val cols = mp.inputCols.map(c => if (c == "bp") "CAST(bp AS DECIMAL(10,3)) AS bp" else c)
    val view = s"SELECT patient_id, ${cols.mkString(", ")} FROM patients_all"
    val sql = s"SELECT patient_id, ${Raven.predictSql(mp.id)} AS score FROM ($view)"
    def bits(df: DataFrame): Map[Long, Long] =
      df.collect().map(r => r.getLong(0) -> java.lang.Double.doubleToRawLongBits(r.getDouble(1))).toMap
    val inlined = TestTables.optimized.sql(sql)
    assert(predictsIn(inlined.queryExecution.optimizedPlan).isEmpty, "not inlined")
    val perRow = bits(TestTables.reference.sql(sql))
    val predictRaw = TestTables.reference.sql(view).collect().map { r =>
      r.getLong(0) -> java.lang.Double.doubleToRawLongBits(mp.predictRaw(r.toSeq.tail.toIndexedSeq))
    }.toMap
    assert(perRow.size == TestTables.HospitalN)
    assert(perRow == bits(inlined))
    assert(perRow == predictRaw)
  }

  test("no pruning across the nullable side of a left outer join") {
    withRules(Seq(RavenRules.ModelSpecialization)) {
      tables("patient_info").createOrReplaceTempView("pi_keys")
      val df = spark.sql(
        s"""SELECT a.patient_id, $handSql AS score
           |FROM (SELECT patient_id FROM pi_keys) a
           |LEFT JOIN (SELECT * FROM patients_all WHERE pregnant = 1) b
           |ON a.patient_id = b.patient_id""".stripMargin)
      val predicts = predictsIn(df.queryExecution.optimizedPlan)
      assert(predicts.nonEmpty)
      assert(predicts.forall(p => p.pipeline.model.asInstanceOf[DecisionTreeModel].nodeCount ==
        TestModels.handTree.nodeCount), "outer-join nullable-side constraint must not prune")
    }
  }

  test("inner join constraints do prune across sides") {
    withRules(Seq(RavenRules.ModelSpecialization)) {
      val df = spark.sql(
        s"""SELECT a.patient_id, $handSql AS score
           |FROM (SELECT * FROM patients_all WHERE pregnant = 1) a
           |JOIN (SELECT patient_id AS pid FROM patient_info) k ON a.patient_id = k.pid""".stripMargin)
      val predicts = predictsIn(df.queryExecution.optimizedPlan)
      assert(predicts.nonEmpty && predicts.forall(_.modelId != TestModels.handTreePipeline.id))
    }
  }

  test("model-projection pushdown narrows the predict's children") {
    // L1-regularized to the point where the origin and dest one-hot blocks
    // are entirely zero: those raw columns become dead inputs.
    val pipe = repro.data.FlightData.pipeline
    val w = TestModels.flightLr.weights.clone()
    Seq("origin", "dest").foreach { col =>
      val (off, enc) = pipe.encoderBlock(col)
      (off until off + enc.width).foreach(w(_) = 0.0)
    }
    val mp = ModelPipeline("flight_lr_blocksparse", pipe, None,
      TestModels.flightLr.copy(weights = w))
    Raven.deploy(mp)
    withRules(Seq(RavenRules.ModelSpecialization)) {
      val df = spark.sql(s"SELECT flight_id, ${Raven.predictSql("flight_lr_blocksparse")} AS p FROM flights")
      val predicts = predictsIn(df.queryExecution.optimizedPlan)
      assert(predicts.nonEmpty)
      val derived = predicts.head.pipeline
      assert(derived.inputCols == pipe.inputCols.filterNot(Set("origin", "dest")))
      assert(predicts.head.children.size == derived.inputCols.size)
      assert(derived.pipeline.numFeatures == mp.pipeline.numFeatures - 200)
      // semantics preserved
      val got = df.collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
      TestModels.flightRows.take(100).foreach { f =>
        if (got.contains(f.flight_id)) {
          val want = mp.predictRaw(repro.data.FlightData.rawValues(f))
          assert(math.abs(got(f.flight_id) - want) < 1e-12)
        }
      }
    }
  }

  /** A linear model over `age` only: a query scoring it needs no column of the joined tables. */
  private lazy val ageModel: String = {
    Raven.deploy(ModelPipeline("age_model",
      FeaturePipeline(Seq("age"), Nil), None, LinearModel(Array(0.1), 0.0, logistic = false)))
    "raven_predict('age_model', p.age)"
  }

  /** `patient_info` joined with `table` on `patient_id`, scored by [[ageModel]]. */
  private def joinedWith(table: String): String =
    s"SELECT p.patient_id AS patient_id, $ageModel AS s FROM patient_info p JOIN $table t ON p.patient_id = t.patient_id"

  /** The Fig. 1 query over the three tables, scored by the hand tree, under `where`. */
  private def fig1(where: String): String =
    s"""SELECT p.patient_id AS patient_id, $ravenPredictJoined AS score
       |FROM patient_info p
       |JOIN blood_tests b ON p.patient_id = b.patient_id
       |JOIN prenatal_tests t ON p.patient_id = t.patient_id
       |WHERE $where AND $ravenPredictJoined > 3""".stripMargin

  /** The joins left in the optimized plan of `sql` on the parquet tables. */
  private def joinsLeft(sql: String): Int =
    TestTables.parquetOptimized.sql(sql).queryExecution.optimizedPlan.collect { case j: Join => j }.size

  /** [[joinsLeft]], after checking the rows against the session without Raven's rules. */
  private def joinsLeftWithSameRows(sql: String): Int = {
    val rows = TestTables.assertSameRows(TestTables.parquetOptimized.sql(sql), TestTables.parquetReference.sql(sql))
    assert(rows > 0, "the query must return rows to be meaningful")
    joinsLeft(sql)
  }

  test("join elimination drops a contribution-free FK join") {
    TestTables.withIntegrity(TestTables.parquetOptimized) {
      assert(joinsLeftWithSameRows(joinedWith("prenatal_tests")) == 0)
      assert(TestTables.parquetOptimized.sql(joinedWith("prenatal_tests")).count() == TestTables.HospitalN)
    }
  }

  test("join elimination drops both joins of the Fig. 1 query under pregnant = 0") {
    TestTables.withIntegrity(TestTables.parquetOptimized) {
      assert(joinsLeftWithSameRows(fig1("p.pregnant = 0")) == 0)
      // the tree pruned for pregnant = 1 reads bp: the prenatal join stays
      assert(joinsLeftWithSameRows(fig1("p.pregnant = 1")) == 1)
    }
  }

  test("join elimination drops both joins of the windowed Fig. 1 query") {
    // Spark infers patient_id < 1000 on the joined tables too: an implied filter
    TestTables.withIntegrity(TestTables.parquetOptimized) {
      assert(joinsLeftWithSameRows(fig1("p.patient_id < 1000 AND p.pregnant = 0")) == 0)
    }
  }

  test("join elimination keeps excluding a NULL patient_id") {
    assert(TestTables.parquetReference.sql("SELECT * FROM patient_info WHERE patient_id IS NULL").count() == 1)
    TestTables.withIntegrity(TestTables.parquetOptimized) {
      assert(joinsLeft(joinedWith("prenatal_tests")) == 0)
      assert(TestTables.parquetOptimized.sql(joinedWith("prenatal_tests")).where("patient_id IS NULL").count() == 0)
    }
  }

  test("join elimination keeps a fan-out join on a declared column name") {
    TestTables.withIntegrity(TestTables.parquetOptimized) {
      declareByColumnName()
      assert(joinsLeftWithSameRows(joinedWith("visits")) == 1)
    }
  }

  @annotation.nowarn("cat=deprecation")
  private def declareByColumnName(): Unit = RavenRules.RavenIntegrity.declareRowPreserving("patient_id", "patient_id")

  test("join elimination needs the base relation to be exactly one declared table") {
    // prenatal_archive is no declared table; under `twice`, prenatal_tests'
    // files are the plan of two declared tables
    val cat = TestTables.hospitalCatalog
    val twice = new SchemaCatalog()
    cat.tableNames.foreach(t => twice.register(cat.table(t)))
    twice.register(cat.table("prenatal_tests").copy(name = "prenatal_copy"))
      .registerFk(ForeignKey("patient_info", "patient_id", "prenatal_tests", "patient_id"))
      .registerFk(ForeignKey("patient_info", "patient_id", "prenatal_copy", "patient_id"))
    TestTables.withIntegrity(TestTables.parquetOptimized)(assert(joinsLeft(joinedWith("prenatal_archive")) == 1))
    TestTables.withIntegrity(TestTables.parquetOptimized, twice)(assert(joinsLeft(joinedWith("prenatal_tests")) == 1))
  }

  test("join elimination does not fire without a declared constraint") {
    assert(joinsLeft(joinedWith("prenatal_tests")) == 1)
    val noFk = new SchemaCatalog() // the tables and their keys, no FK
    TestTables.hospitalCatalog.tableNames.foreach(t => noFk.register(TestTables.hospitalCatalog.table(t)))
    TestTables.withIntegrity(TestTables.parquetOptimized, noFk)(assert(joinsLeft(joinedWith("prenatal_tests")) == 1))
  }

  test("join elimination does not fire when the right side is filtered") {
    TestTables.withIntegrity(TestTables.parquetOptimized) {
      assert(joinsLeftWithSameRows(joinedWith("(SELECT * FROM prenatal_tests WHERE bp > 120)")) == 1)
    }
  }

  test("model inlining removes the predict expression and preserves results") {
    val noRules = spark.sql(s"SELECT patient_id, $handSql AS score FROM patients_all").collect()
      .map(r => (r.getLong(0), r.getDouble(1))).sortBy(_._1)
    withRules(Seq(RavenRules.ModelInlining)) {
      val df = spark.sql(s"SELECT patient_id, $handSql AS score FROM patients_all")
      assert(predictsIn(df.queryExecution.optimizedPlan).isEmpty, "predict should be inlined")
      val got = df.collect().map(r => (r.getLong(0), r.getDouble(1))).sortBy(_._1)
      assert(got.toSeq == noRules.toSeq)
    }
  }

  test("every tree or forest without a scaler inlines, pruned or not") {
    val forest = TestModels.hospitalForest10Pipeline
    val scaled = forest.copy(id = "hospital_rf10_scaled", scaler = Some(TestModels.hospitalScaler))
    Seq(forest, TestModels.hospitalTreeDeep, scaled).foreach(Raven.deploy)
    def sql(id: String) = s"SELECT patient_id, ${Raven.predictSql(id)} AS score FROM patients_all"
    def scores(df: DataFrame) = df.collect().map(r => r.getLong(0) -> java.lang.Double.doubleToRawLongBits(r.getDouble(1))).toMap
    val perRow = scores(spark.sql(sql(forest.id)))
    for (rules <- Seq(Seq(RavenRules.ModelInlining), Seq(RavenRules.ModelSpecialization, RavenRules.ModelInlining)))
      withRules(rules) {
        for (id <- Seq(forest.id, TestModels.hospitalTreeDeep.id); where <- Seq("", " WHERE pregnant = 1"))
          assert(predictsIn(spark.sql(sql(id) + where).queryExecution.optimizedPlan).isEmpty, s"$id$where")
        assert(scores(spark.sql(sql(forest.id))) == perRow)
        // a scaler sits between the features and the trees: a per-row predict
        assert(predictsIn(spark.sql(sql(scaled.id)).queryExecution.optimizedPlan).map(_.modelId) == Seq(scaled.id))
      }
  }

  test("forest inlining averages the trees") {
    val forest = RandomForestModel(IndexedSeq(TestModels.handTree, TestModels.handTree), isClassifier = false)
    Raven.deploy(ModelPipeline("hand_rf", HospitalData.pipeline, None, forest))
    withRules(Seq(RavenRules.ModelInlining)) {
      val df = spark.sql(s"SELECT patient_id, ${Raven.predictSql("hand_rf")} AS score FROM patients_all")
      assert(predictsIn(df.queryExecution.optimizedPlan).isEmpty)
      val got = df.collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
      HospitalData.localJoined(50).foreach { j =>
        val want = forest.predict(HospitalData.pipeline.transform(HospitalData.rawValues(j)))
        assert(math.abs(got(j.patient_id) - want) < 1e-12)
      }
    }
  }

  test("full install: Fig-1 query end-to-end with all rules, oracle-checked against inlined SQL") {
    TestTables.withIntegrity(spark)(withRules(Raven.rules) {
      val query =
        s"""SELECT p.patient_id AS patient_id, $handSql AS score
           |FROM patient_info p
           |JOIN blood_tests b ON p.patient_id = b.patient_id
           |JOIN prenatal_tests t ON p.patient_id = t.patient_id
           |WHERE p.pregnant = 1""".stripMargin
            .replace(handSql, ravenPredictJoined)
      val df = spark.sql(query)
      assert(predictsIn(df.queryExecution.optimizedPlan).isEmpty, "should be fully inlined")
      // oracle: same tree as portable CASE SQL over the same tables
      val featureExprs = OracleSql.featureSqlExprs(HospitalData.pipeline)
      val caseSql = OracleSql.toCaseSql(TestModels.handTree, featureExprs)
      Oracle.assertEquivalent(
        df,
        s"""SELECT p.patient_id AS patient_id, ($caseSql) AS score
           |FROM patient_info p
           |JOIN blood_tests b ON p.patient_id = b.patient_id
           |JOIN prenatal_tests t ON p.patient_id = t.patient_id
           |WHERE p.pregnant = 1""".stripMargin,
        "patient_info" -> tables("patient_info"),
        "blood_tests" -> tables("blood_tests"),
        "prenatal_tests" -> tables("prenatal_tests"),
      )
    })
  }

  /** raven_predict over the 3-table join's columns in pipeline order. */
  private def ravenPredictJoined: String = {
    val colSource = Map(
      "age" -> "p.age", "pregnant" -> "p.pregnant", "num_prev_admissions" -> "p.num_prev_admissions",
      "hematocrit" -> "b.hematocrit", "neutrophils" -> "b.neutrophils", "glucose" -> "b.glucose",
      "bmi" -> "b.bmi", "pulse" -> "b.pulse", "bp" -> "t.bp", "fetal_hr" -> "t.fetal_hr",
      "gestation_weeks" -> "t.gestation_weeks", "gender" -> "p.gender")
    val args = HospitalData.pipeline.inputCols.map(colSource)
    s"raven_predict('${TestModels.handTreePipeline.id}', ${args.mkString(", ")})"
  }

  test("predictNNBatch scores as per-row raven_predict within float32, with a NULL number and an unseen category") {
    val dir = java.nio.file.Files.createTempDirectory("raven-nn")
    try {
      // each table's first rows, and copies of two of them: one with a NULL number, one with an unseen category
      def odd(table: String, key: String, num: String, cat: String, unseen: String): String = {
        val path = dir.resolve(table).toString
        val rows = tables(table).where(s"$key < 300")
        val copy = (k: Long) => functions.col(key) + k
        rows.unionByName(rows.where(s"$key = 1").withColumn(key, copy(100000)).withColumn(num, functions.lit(null)))
          .unionByName(rows.where(s"$key = 2").withColumn(key, copy(100001)).withColumn(cat, functions.lit(unseen)))
          .coalesce(1).write.parquet(path)
        path
      }
      val hospital = odd("patients_all", "patient_id", "age", "gender", "X")
      val flights = odd("flights", "flight_id", "dep_hour", "airline", "ZZ")
      for ((mp, path, key) <- Seq((TestModels.handTreePipeline, hospital, "patient_id"),
          (TestModels.hospitalForestPipeline, hospital, "patient_id"), (TestModels.flightLrPipeline, flights, "flight_id"))) {
        Raven.deploy(mp)
        val in = TestTables.reference.read.parquet(path)
        assert(in.where(s"$key >= 100000").count() == 2)
        val nn = NNPipelineModel(NNTranslator.translatePipeline(mp), mp.pipeline)
        TestTables.assertSameRows(RavenRuntime.predictNNBatch(in, nn, "score").select(key, "score"),
          in.selectExpr(key, s"${Raven.predictSql(mp.id)} AS score"), eps = 1e-4)
      }
    } finally org.apache.spark.network.util.JavaUtils.deleteRecursively(dir.toFile)
  }

  test("two NN queries over an 8-partition frame build one session") {
    val mp = TestModels.hospitalForestPipeline
    val nn = NNPipelineModel(NNTranslator.translatePipeline(mp), mp.pipeline)
    val in = tables("patients_all").repartition(8)
    assert(in.rdd.getNumPartitions == 8)
    val before = repro.onnx.Session.builds.get
    val sums = Seq.fill(2)(RavenRuntime.predictNNBatch(in, nn, "score").agg(functions.sum("score")).head().getDouble(0))
    assert(repro.onnx.Session.builds.get - before == 1)
    // the partial sums may merge in either order
    assert(math.abs(sums(0) - sums(1)) <= 1e-9 * math.abs(sums(0)))
  }

  test("batched runtime predictions equal per-row expression predictions") {
    val batched = RavenRuntime.predictBatch(tables("patients_all"), TestModels.handTreePipeline.id, "score")
    val perRow = spark.sql(s"SELECT *, $handSql AS score FROM patients_all")
    TestTables.assertSameRows(
      batched.select("patient_id", "score"), perRow.select("patient_id", "score"), eps = 0.0)
  }

  test("a DataFrame predict is specialized and inlined like the same SQL query") {
    def pregnant(s: SparkSession): DataFrame = RavenRuntime.predictBatch(
      s.table("patients_all").where("pregnant = 1"), TestModels.handTreePipeline.id, "score")
    def rows(df: DataFrame) =
      df.select("patient_id", "score").collect().map(r => r.getLong(0) -> r.getDouble(1)).sortBy(_._1).toSeq
    def inlined(plan: LogicalPlan): Seq[InlinedTrees] =
      plan.collect { case p => p.expressions.flatMap(_.collect { case e: InlinedTrees => e }) }.flatten
    val reference = pregnant(TestTables.reference)
    assert(predictsIn(reference.queryExecution.optimizedPlan).size == 1)
    withRules(Raven.rules) {
      val df = pregnant(spark)
      val plan = df.queryExecution.optimizedPlan
      val sqlPlan = spark.sql(s"SELECT *, $handSql AS score FROM patients_all WHERE pregnant = 1")
        .queryExecution.optimizedPlan
      assert(predictsIn(plan).isEmpty, s"not inlined: $plan")
      assert(inlined(plan).size == 1 && inlined(sqlPlan).size == 1, s"not one inlined node per predict: $plan")
      // the variant id, tree count and node count
      assert(inlined(plan).head.toString == inlined(sqlPlan).head.toString,
        s"inlined differently from the SQL query: $plan\n$sqlPlan")
      assert(rows(df).nonEmpty && rows(df) == rows(reference))
    }
  }

  test("redeploying a different model under an id drops its derived variants") {
    val id = "redeployed_dt"
    Raven.deploy(TestModels.handTreePipeline.copy(id = id))
    val query = s"SELECT patient_id, ${Raven.predictSql(id)} AS score FROM patients_all WHERE pregnant = 1"
    withRules(Raven.rules) {
      val before = spark.sql(query).collect().map(_.getDouble(1)).toSet
      assert(before.nonEmpty && before.subsetOf(Set(5.0, 8.0, 10.0)))
      val constant = DecisionTreeModel(Leaf(42.0), HospitalData.pipeline.numFeatures, isClassifier = false)
      Raven.deploy(ModelPipeline(id, HospitalData.pipeline, None, constant))
      assert(spark.sql(query).collect().map(_.getDouble(1)).toSet == Set(42.0))
    }
  }

  test("install adds the rules once per session, also after they were reset") {
    val s = spark.newSession()
    val rules = Raven.rules
    Raven.install(s)
    Raven.install(s)
    assert(s.experimental.extraOptimizations == rules)
    s.experimental.extraOptimizations = Nil
    Raven.install(s)
    assert(s.experimental.extraOptimizations == rules)
  }

  test("re-specializing an optimized plan returns the same plan") {
    val flight = Raven.predictSql(TestModels.flightLrPipeline.id)
    val queries = Seq(
      s"SELECT patient_id, $handSql AS score FROM patients_all WHERE pregnant = 1",
      s"SELECT patient_id, $handSql AS score FROM patients_all",
      s"SELECT flight_id, $flight AS p FROM flights WHERE month = 1 AND dest = 'AP00' AND dep_hour > 17",
      s"SELECT flight_id, $flight AS p FROM flights")
    // the hand tree would inline
    withRules(Raven.rules.filterNot(_ == RavenRules.ModelInlining)) {
      for (sql <- queries) {
        val plan = spark.sql(sql).queryExecution.optimizedPlan
        assert(predictsIn(plan).nonEmpty && predictsIn(plan).forall(_.modelId.contains('#')), plan)
        assert(RavenRules.ModelSpecialization(plan).fastEquals(plan), plan)
      }
    }
  }

  test("a plan prints a predict's model id, never its model") {
    val mp = TestModels.hospitalMlpPipeline
    Raven.deploy(mp)
    val df = TestTables.optimized.sql(s"SELECT patient_id, ${Raven.predictSql(mp.id)} AS s FROM patients_all WHERE pregnant = 1")
    val plan = df.queryExecution.optimizedPlan
    assert(predictsIn(plan).map(_.modelId) == Seq(mp.id))
    for (text <- Seq(plan.toString, df.queryExecution.toString)) {
      assert(text.contains(s"raven_predict(${mp.id}, "), text)
      assert(!text.contains("ModelPipeline(") && !text.contains("MlpModel"), text)
    }
  }

  test("a DataFrame scores with the pipeline it was analyzed with") {
    val numFeatures = HospitalData.pipeline.numFeatures
    def lr(w: Double, b: Double) = ModelPipeline("redeployed_lr", HospitalData.pipeline, None,
      LinearModel(Array.tabulate(numFeatures)(i => w * (i + 1)), b, logistic = false))
    val dt = TestModels.handTreePipeline.copy(id = "redeployed_inlined_dt")
    val constant = ModelPipeline(dt.id, HospitalData.pipeline, None,
      DecisionTreeModel(Leaf(1000.0), numFeatures, isClassifier = false))
    // (session, pipeline before and after the redeploy, cohort): the per-row LR variant, the
    // runtime-only root and the inlined tree
    val paths = Seq((TestTables.optimized, lr(0.1, 1.0), lr(0.2, 7.0), "pregnant = 1"),
      (TestTables.reference, lr(0.1, 1.0), lr(0.2, 7.0), "true"), (TestTables.optimized, dt, constant, "pregnant = 1"))
    def frame(s: SparkSession, id: String, cohort: String): DataFrame =
      RavenRuntime.predictBatch(s.table("patients_all").where(cohort), id, "score")
    def assertScoresWith(df: DataFrame, mp: ModelPipeline, what: String): Unit = {
      val rows = df.collect()
      assert(rows.nonEmpty, what)
      for (r <- rows) {
        val want = mp.predictRaw(mp.inputCols.map(c => r.get(r.fieldIndex(c))).toIndexedSeq)
        val got = r.getAs[Double]("score")
        assert(math.abs(got - want) <= 1e-9 * (1 + math.abs(want)), s"$what: row ${r.getAs[Long]("patient_id")}: $got, not $want")
      }
    }
    paths.foreach(p => Raven.deploy(p._2))
    val built = paths.map { case (s, old, _, cohort) => frame(s, old.id, cohort) }
    paths.foreach(p => Raven.deploy(p._3))
    for (((s, old, redeployed, cohort), df) <- paths.zip(built)) {
      assertScoresWith(df, old, s"${old.id} on $cohort, built before the redeploy")
      assertScoresWith(frame(s, old.id, cohort), redeployed, s"${old.id} on $cohort, built after the redeploy")
    }
    // the three paths: a per-row variant, the root as deployed, and no predict left
    assert(built.map(df => predictsIn(df.queryExecution.optimizedPlan).map(_.modelId.contains('#'))) ==
      Seq(Seq(true), Seq(false), Nil))
  }

  test("integrity licenses join elimination in its own session only") {
    val dir = java.nio.file.Files.createTempDirectory("raven-integrity")
    try {
      // another session with Raven, where prenatal_tests has two rows per patient_id
      val other = SparkSpec.shared.newSession()
      Raven.install(other)
      val keys = "patient_id BETWEEN 0 AND 99"
      val prenatal = TestTables.parquetReference.table("prenatal_tests").where(keys)
      TestTables.parquetReference.table("patient_info").where(keys).write.parquet(dir.resolve("patient_info").toString)
      prenatal.unionAll(prenatal).write.parquet(dir.resolve("prenatal_tests").toString)
      Seq("patient_info", "prenatal_tests").foreach(t => other.read.parquet(dir.resolve(t).toString).createOrReplaceTempView(t))
      val sql = "SELECT p.patient_id, p.age FROM patient_info p JOIN prenatal_tests t ON p.patient_id = t.patient_id"
      assert(other.sql(sql).count() == 200)
      TestTables.withIntegrity(TestTables.parquetOptimized) {
        assert(joinsLeft(joinedWith("prenatal_tests")) == 0)
        assert(other.sql(sql).count() == 200)
        assert(other.sql(sql).queryExecution.optimizedPlan.collect { case j: Join => j }.size == 1)
      }
    } finally org.apache.spark.network.util.JavaUtils.deleteRecursively(dir.toFile)
  }

  /** Each row's score under `sql`, as raw bits, by the key in the first column (NULL included). */
  private def scoreBits(df: DataFrame): Map[Any, Long] =
    df.collect().map(r => r.get(0) -> java.lang.Double.doubleToRawLongBits(r.getDouble(1))).toMap

  test("a scaler-free MLP that never reads a column scores as without Raven's rules, bit for bit") {
    // num_prev_admissions has an all-zero first-layer row: the MLP never reads it
    val w1 = Array(Array(0.05, -0.02), Array(1.5, 0.3), Array(0.0, 0.0), Array(-0.4, 0.8), Array(0.2, -0.6))
    val mlp = MlpModel(Seq(MlpLayer(w1, Array(0.1, -0.1), "relu"), MlpLayer(Array(Array(0.7), Array(-1.1)), Array(0.05), "sigmoid")))
    val mp = ModelPipeline("mlp_no_scaler", FeaturePipeline(Seq("age", "pregnant", "num_prev_admissions"),
      Seq(OneHotEncoder("gender", IndexedSeq("F", "M")))), None, mlp)
    assert(!mlp.usedFeatures.contains(2))
    Raven.deploy(mp)
    val sql = s"SELECT patient_id, ${Raven.predictSql(mp.id)} AS s FROM patient_info WHERE pregnant = 1"
    val reference = scoreBits(TestTables.parquetReference.sql(sql))
    assert(reference.nonEmpty)
    assert(scoreBits(TestTables.parquetOptimized.sql(sql)) == reference)
    val predicts = predictsIn(TestTables.parquetOptimized.sql(sql).queryExecution.optimizedPlan)
    assert(predicts.map(_.modelId) == Seq(mp.id), "an MLP has no variant")
  }

  test("a NaN or infinite value of a zero-weight feature scores as without Raven's rules") {
    val dir = java.nio.file.Files.createTempDirectory("raven-nan")
    try {
      val path = dir.resolve("t").toString
      spark.range(4).selectExpr("id", "CAST(id AS DOUBLE) AS a",
        "CAST(CASE id WHEN 0 THEN 'NaN' WHEN 1 THEN 'Infinity' WHEN 2 THEN '-Infinity' ELSE '1.5' END AS DOUBLE) AS b")
        .coalesce(1).write.parquet(path)
      val mp = ModelPipeline("zero_b", FeaturePipeline(Seq("a", "b"), Nil), None,
        LinearModel(Array(1.0, 0.0), 0.5, logistic = false))
      Raven.deploy(mp)
      val sql = s"SELECT id, ${Raven.predictSql(mp.id)} AS s FROM nan_b"
      def rows(s: SparkSession): Map[Any, Long] = { s.read.parquet(path).createOrReplaceTempView("nan_b"); scoreBits(s.sql(sql)) }
      val reference = rows(TestTables.reference)
      assert(reference.values.map(java.lang.Double.longBitsToDouble).toSet == Set(0.5, 1.5, 2.5, 3.5))
      assert(rows(TestTables.optimized) == reference)
    } finally org.apache.spark.network.util.JavaUtils.deleteRecursively(dir.toFile)
  }
}
