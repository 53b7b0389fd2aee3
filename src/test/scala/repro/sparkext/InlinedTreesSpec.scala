package repro.sparkext

import java.nio.file.Files
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.analysis.UnresolvedAttribute
import org.apache.spark.sql.catalyst.expressions.codegen.ByteCodeStats
import org.apache.spark.sql.execution.debug.codegenStringSeq
import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite
import repro.{SparkSpec, TestModels}
import repro.data.{FlightData, HospitalData}
import repro.ml._

/** The inlined form of a tree model ([[InlinedTrees]]): its answers equal
  * the per-row predict's on every input, in generated and in interpreted
  * code, and its generated code stays small enough to compile and JIT.
  * Each query reads a parquet-backed table, so that Spark evaluates the
  * node in the scan's stage and not while optimizing a local relation.
  */
class InlinedTreesSpec extends AnyFunSuite with SparkSpec {

  private val numeric = HospitalData.pipeline.numericCols
  private val schema = StructType(StructField("id", LongType, nullable = false) +:
    (numeric.map(StructField(_, DoubleType)) :+ StructField("gender", StringType)))

  /** A Raven-optimized and an unoptimized session, each with `rows` as the parquet view `t`. */
  private def sessions(rows: Seq[Row], schema: StructType = schema): (SparkSession, SparkSession) = {
    val dir = Files.createTempDirectory("inlined").resolve("t").toString
    spark.createDataFrame(rows.asJava, schema).write.parquet(dir)
    val optimized = spark.newSession()
    Raven.install(optimized)
    val reference = spark.newSession()
    Raven.installRuntimeOnly(reference)
    Seq(optimized, reference).foreach(_.read.parquet(dir).createOrReplaceTempView("t"))
    (optimized, reference)
  }

  private def row(id: Long, j: HospitalData.Joined): Row =
    Row.fromSeq(id +: HospitalData.rawValues(j).map {
      case s: String => s
      case v         => v.asInstanceOf[Number].doubleValue: Any
    })

  private def scores(df: DataFrame): Map[Long, Double] = df.collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap

  private def inlined(df: DataFrame): Seq[InlinedTrees] =
    df.queryExecution.optimizedPlan.flatMap(_.expressions.flatMap(_.collect { case e: InlinedTrees => e }))

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  /** Every whole-stage codegen stage of `df`, run: each compiles, and no method reaches 8 000 bytes. */
  private def assertCompiledUnderLimit(df: DataFrame, what: String): Seq[String] = {
    df.collect()
    val stages = codegenStringSeq(df.queryExecution.executedPlan)
    for ((stage, _, stats) <- stages) {
      assert(stats != ByteCodeStats.UNAVAILABLE, s"does not compile: $what\n$stage")
      assert(stats.maxMethodCodeSize < 8000, s"a method of ${stats.maxMethodCodeSize} bytes: $what\n$stage")
    }
    stages.map(_._2)
  }

  /** A forest of more trees than one generated method sums: 1 200 stumps. */
  private lazy val stumps = ModelPipeline("hospital_rf_stumps", HospitalData.pipeline, None, RandomForestModel(
    IndexedSeq.tabulate(1200)(k => DecisionTreeModel(Split(k % numeric.size, 30.0 + k % 50, Leaf(k), Leaf(-k / 3.0)),
      HospitalData.pipeline.numFeatures, isClassifier = false)), isClassifier = false))

  private def treesOf(m: Model): Seq[DecisionTreeModel] = m match {
    case t: DecisionTreeModel => Seq(t)
    case f: RandomForestModel => f.trees
    case other                => fail(s"not a tree model: $other")
  }

  test("a NULL numeric feature reads as 0.0 in the inlined tree, as in the per-row predict") {
    Raven.deploy(TestModels.handTreePipeline)
    val base = HospitalData.localJoined(1).head.copy(pregnant = 1, age = 40, bp = 120.0)
    // bp < 140 → 5.0; a NULL bp that skipped the split would fall through to age ≥ 35 → 10.0
    val rows = Seq(row(0, base), row(1, base.copy(bp = 150.0)), Row.fromSeq(row(2, base).toSeq.updated(9, null)))
    val (optimized, reference) = sessions(rows)
    val sql = s"SELECT id, ${Raven.predictSql(TestModels.handTreePipeline.id)} AS score FROM t WHERE pregnant = 1"
    val df = optimized.sql(sql)
    assert(inlined(df).size == 1, df.queryExecution.optimizedPlan)
    assert(scores(reference.sql(sql)) == Map(0L -> 5.0, 1L -> 10.0, 2L -> 5.0))
    assert(scores(df) == scores(reference.sql(sql)))
  }

  test("the inlined forest compiles as whole-stage code, every method under 8 000 bytes") {
    val large = TestModels.hospitalForestLarge.model.asInstanceOf[RandomForestModel]
    val deep = TestModels.hospitalTreeDeep.model.asInstanceOf[DecisionTreeModel]
    assert(large.totalNodes >= 5000 && deep.nodeCount >= 2000 && deep.root.depth >= 12)
    val (optimized, _) = sessions(HospitalData.localJoined(500).toSeq.zipWithIndex.map { case (j, i) => row(i, j) })
    for (mp <- Seq(TestModels.hospitalForest10Pipeline, TestModels.hospitalForestLarge, TestModels.hospitalTreeDeep, stumps)) {
      Raven.deploy(mp)
      val predict = Raven.predictSql(mp.id)
      val queries = Seq(
        s"SELECT id, $predict AS score FROM t",
        s"SELECT count(*), sum($predict) FROM t",
        s"SELECT id, $predict AS score FROM t WHERE pregnant = 1 AND $predict > 7",
        s"SELECT count(*), sum($predict) FROM t WHERE pregnant = 1")
      for (sql <- queries) {
        val df = optimized.sql(sql)
        assert(inlined(df).nonEmpty && inlined(df).forall(_.variantId.contains('#')), s"not specialized and inlined: $sql")
        val code = assertCompiledUnderLimit(df, sql)
        assert(code.exists(_.contains("ravenTree")), s"no whole-stage code scores the trees: $sql")
      }
    }
    // the deep tree's subtrees are methods of their own
    Raven.deploy(TestModels.hospitalTreeDeep)
    val code = assertCompiledUnderLimit(optimized.sql(s"SELECT id, ${Raven.predictSql(TestModels.hospitalTreeDeep.id)} FROM t"), "deep")
    assert(code.map("private double \\w*ravenTree_\\d+\\(".r.findAllIn(_).size).max > 1)
  }

  test("inlined trees equal predictRaw bit for bit, in generated and in interpreted code") {
    val pruned = TestModels.hospitalForestPipeline.optimizeFor(Seq(NumRange("pregnant", FeatureConstraint.equalTo(1.0))))
      ._1.copy(id = "hospital_rf_pregnant")
    val models = Seq(TestModels.handTreePipeline, TestModels.hospitalForestPipeline, pruned,
      TestModels.hospitalTreePipeline, TestModels.hospitalForestLarge, TestModels.hospitalTreeDeep, stumps)
    models.foreach(Raven.deploy)
    assert(models(2).model.asInstanceOf[RandomForestModel].totalNodes <
      TestModels.hospitalForest.totalNodes, "the variant is not pruned")

    val base = HospitalData.localJoined(200)
    val template = row(0, base.head.copy(pregnant = 1))
    def variant(f: Int, v: Any): Row = Row.fromSeq(template.toSeq.updated(1 + f, v))
    // every split threshold of every model, as the value of the raw column it reads
    val atThreshold = for {
      mp <- models
      t  <- treesOf(mp.model)
      s  <- t.internalNodes if s.feature < mp.pipeline.numericCols.size
    } yield variant(numeric.indexOf(mp.pipeline.numericCols(s.feature)), s.threshold)
    val special = atThreshold ++ numeric.indices.flatMap(f => Seq(variant(f, Double.NaN), variant(f, null))) ++
      Seq(variant(numeric.size, "X"), variant(numeric.size, null))
    val rows = (base.toSeq.map(row(0, _)) ++ special).zipWithIndex.map { case (r, i) => Row.fromSeq(i.toLong +: r.toSeq.tail) }
    val (optimized, _) = sessions(rows)

    for ((wholeStage, factory) <- Seq("true" -> "CODEGEN_ONLY", "false" -> "CODEGEN_ONLY", "false" -> "NO_CODEGEN")) {
      optimized.conf.set("spark.sql.codegen.wholeStage", wholeStage)
      optimized.conf.set("spark.sql.codegen.factoryMode", factory)
      for (mp <- models) {
        val df = optimized.sql(s"SELECT id, ${Raven.predictSql(mp.id)} AS score FROM t")
        val node = inlined(df)
        assert(node.size == 1, df.queryExecution.optimizedPlan)
        val trees = node.head.scored.model match {
          case t: DecisionTreeModel => s"1 trees, ${t.nodeCount} nodes"
          case f: RandomForestModel => s"${f.trees.size} trees, ${f.totalNodes} nodes"
          case other                => fail(s"not a tree model: $other")
        }
        assert(df.queryExecution.optimizedPlan.toString.contains(s"raven_inlined(${node.head.variantId}, $trees)"))
        val got = scores(df)
        val mismatches = rows.filter { r =>
          bits(got(r.getLong(0))) != bits(mp.predictRaw(mp.inputCols.map(c => r.get(schema.fieldIndex(c))).toIndexedSeq))
        }
        assert(mismatches.isEmpty, s"${mp.id}, wholeStage=$wholeStage, $factory: ${mismatches.take(3)}")
      }
    }
  }

  test("a tree variant that keeps only gender=F scores bit for bit like its root, per row and inlined") {
    val pipe = HospitalData.pipeline
    val (off, enc) = pipe.encoderBlock("gender")
    // gender=F, then age: the gender=M indicator is never read
    val root = ModelPipeline("gender_f_tree", pipe, None, DecisionTreeModel(
      Split(off + enc.indexOf("F"), 0.5, Split(0, 35.0, Leaf(1.0), Leaf(2.0)), Leaf(3.0)),
      pipe.numFeatures, isClassifier = false))
    Raven.deploy(root)
    val variant = PredictExpression(root, root.inputCols.map(UnresolvedAttribute(_))).specializedFor(Nil).pipeline
    assert(variant.pipeline == FeaturePipeline(Seq("age"), Seq(OneHotEncoder("gender", IndexedSeq("F")))))

    val base = HospitalData.localJoined(1).head.copy(age = 40)
    val rows = Seq("F", "M", "X", null).zipWithIndex.map { case (g, i) =>
      Row.fromSeq(row(i, base).toSeq.updated(1 + numeric.size, g))
    }
    def raw(r: Row): IndexedSeq[Any] = root.inputCols.map(c => r.get(schema.fieldIndex(c))).toIndexedSeq
    def bits(m: Map[Long, Double]): Map[Long, Long] = m.map { case (k, v) => k -> java.lang.Double.doubleToRawLongBits(v) }
    val want = rows.map(r => r.getLong(0) -> root.predictRaw(raw(r))).toMap
    assert(want == Map(0L -> 3.0, 1L -> 2.0, 2L -> 2.0, 3L -> 2.0))

    val perRow = variant.scorerFor(root.inputCols)
    assert(bits(rows.map(r => r.getLong(0) -> perRow(raw(r))).toMap) == bits(want))
    val (optimized, reference) = sessions(rows)
    val sql = s"SELECT id, ${Raven.predictSql(root.id)} AS score FROM t"
    val df = optimized.sql(sql)
    assert(inlined(df).map(_.variantId) == Seq(variant.id), df.queryExecution.optimizedPlan)
    assert(bits(scores(df)) == bits(want))
    assert(bits(scores(reference.sql(sql))) == bits(want))
  }

  test("an argument of any accepted type scores alike per row and inlined") {
    val cats = IndexedSeq("1", "2", "true", "1.0", "-0.0", "NaN", "1.0E10", "2.5", "null")
    // leaf k + 1 at the first category k that is set, 0.0 at none
    val categorical = ModelPipeline("any_type_category", FeaturePipeline(Nil, Seq(OneHotEncoder("c", cats))), None,
      DecisionTreeModel(cats.indices.foldRight[TreeNode](Leaf(0.0))((k, next) => Split(k, 0.5, next, Leaf(k + 1.0))),
        cats.size, isClassifier = false))
    // 1.0 below 0.5, 2.0 below 1.5, 3.0 from 1.5 and at NaN
    val number = ModelPipeline("any_type_number", FeaturePipeline(Seq("n"), Nil), None,
      DecisionTreeModel(Split(0, 0.5, Leaf(1.0), Split(0, 1.5, Leaf(2.0), Leaf(3.0))), 1, isClassifier = false))
    Seq(categorical, number).foreach(Raven.deploy)
    val cols = Seq("i" -> IntegerType, "l" -> LongType, "f" -> FloatType, "d" -> DoubleType, "b" -> BooleanType,
      "m" -> DecimalType(12, 2), "s" -> StringType, "n" -> StringType)
    val anyTypes = StructType(StructField("id", LongType, nullable = false) +: cols.map { case (c, t) => StructField(c, t) })
    def dec(v: String) = new java.math.BigDecimal(v)
    val rows = Seq(
      Row(0L, 1, 1L, 1.0f, 1.0, true, dec("1.00"), "1", "1"),
      Row(1L, 2, 2L, 2.5f, -0.0, false, dec("2.50"), "1.0", "0.5"),
      Row(2L, null, null, Float.NaN, Double.NaN, null, null, null, null),
      Row(3L, 0, 10000000000L, 1.0e10f, 1.0e10, true, dec("-0.00"), "null", "NaN"),
      Row(4L, -1, -1L, -0.0f, 0.1, false, dec("1.49"), "x", "1e10"))
    val (optimized, reference) = sessions(rows, anyTypes)
    val args = Seq(categorical -> Seq("i", "l", "f", "d", "b", "m", "s", "NULL"),
      number -> Seq("i", "l", "f", "d", "b", "m", "n", "NULL"))
    for ((mp, as) <- args; a <- as) {
      val sql = s"SELECT id, raven_predict('${mp.id}', $a) AS score FROM t"
      val df = optimized.sql(sql)
      assert(inlined(df).size == 1, df.queryExecution.optimizedPlan)
      // a DECIMAL reaches the pipeline as its double
      val want = rows.map(r => r.getLong(0) -> bits(mp.predictRaw(IndexedSeq(
        if (a == "NULL") null else r.get(anyTypes.fieldIndex(a)) match {
          case d: java.math.BigDecimal => d.doubleValue
          case v                       => v
        })))).toMap
      assert(scores(df).map { case (k, v) => k -> bits(v) } == want, s"${mp.id}($a)")
      assert(scores(reference.sql(sql)).map { case (k, v) => k -> bits(v) } == want, s"${mp.id}($a)")
    }
    // NULL reads as no category, not as "null"
    assert(categorical.predictRaw(IndexedSeq(null)) == 0.0)
  }

  test("a tree over most categories of a wide encoder keeps its stage method under 8 000 bytes") {
    val pipe = FlightData.pipeline
    val numCount = pipe.numericCols.size
    // every category but each fifth, in a chain: leaf k at the first one set
    val read = (numCount until pipe.numFeatures).filter(_ % 5 != 0)
    val root = read.foldRight[TreeNode](Split(3, 1000.0, Leaf(-1.0), Leaf(-2.0)))((k, next) => Split(k, 0.5, next, Leaf(k)))
    val mp = ModelPipeline("flight_wide_dt", pipe, None, DecisionTreeModel(root, pipe.numFeatures, isClassifier = false))
    assert(read.size > (pipe.numFeatures - numCount) * 3 / 4)
    Raven.deploy(mp)
    val flights = StructType(StructField("id", LongType, nullable = false) +:
      (pipe.numericCols.map(StructField(_, DoubleType)) ++ pipe.encoders.map(e => StructField(e.inputCol, StringType))))
    val flightRows = FlightData.localFlights(300).toSeq.map(f => FlightData.rawValues(f).map {
      case s: String => s
      case v         => v.asInstanceOf[Number].doubleValue: Any
    })
    val special = Seq(flightRows.head.updated(numCount, "XX"), flightRows.head.updated(numCount + 1, null),
      flightRows.head.updated(3, null))
    val rows = (flightRows ++ special).zipWithIndex.map { case (r, i) => Row.fromSeq(i.toLong +: r) }
    val (optimized, _) = sessions(rows, flights)
    val df = optimized.sql(s"SELECT id, ${Raven.predictSql(mp.id)} AS score FROM t")
    assert(inlined(df).size == 1, df.queryExecution.optimizedPlan)
    assertCompiledUnderLimit(df, mp.id)
    val got = scores(df)
    val mismatches = rows.filter(r => bits(got(r.getLong(0))) != bits(mp.predictRaw(r.toSeq.tail.toIndexedSeq)))
    assert(mismatches.isEmpty, mismatches.take(3))
  }
}
