package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.network.util.JavaUtils
import repro.core.ir.{ForeignKey, SchemaCatalog, TableDef}
import repro.data.{FlightData, HospitalData}
import repro.sparkext.Raven
import repro.sparkext.RavenRules.RavenIntegrity

/** Shared Spark-side tables + IR catalog for optimizer/codegen tests. */
object TestTables {

  val HospitalN = 1500L
  val FlightN = 2000L

  /** IR catalog with the hospital star schema (PKs + enforced FKs). */
  lazy val hospitalCatalog: SchemaCatalog = new SchemaCatalog()
    .register(TableDef("patient_info",
      Seq("patient_id", "age", "gender", "pregnant", "num_prev_admissions"), Some("patient_id")))
    .register(TableDef("blood_tests",
      Seq("patient_id", "hematocrit", "neutrophils", "glucose", "bmi", "pulse"), Some("patient_id")))
    .register(TableDef("prenatal_tests",
      Seq("patient_id", "bp", "fetal_hr", "gestation_weeks"), Some("patient_id")))
    .register(TableDef("patients_all",
      Seq("patient_id", "age", "gender", "pregnant", "num_prev_admissions", "hematocrit",
        "neutrophils", "glucose", "bmi", "pulse", "bp", "fetal_hr", "gestation_weeks", "lengthofstay"),
      Some("patient_id")))
    .register(TableDef("flights",
      Seq("flight_id", "month", "day_of_week", "dep_hour", "distance", "airline", "origin", "dest", "delayed"),
      Some("flight_id")))
    .registerFk(ForeignKey("patient_info", "patient_id", "blood_tests", "patient_id"))
    .registerFk(ForeignKey("patient_info", "patient_id", "prenatal_tests", "patient_id"))

  @volatile private var registered = false

  /** DataFrames for every table, built on `spark.range` (not local relations,
    * which Spark evaluates before Raven's rules run).
    */
  def frames(spark: SparkSession): Map[String, DataFrame] = Map(
    "patient_info" -> HospitalData.patientInfo(spark, HospitalN),
    "blood_tests" -> HospitalData.bloodTests(spark, HospitalN),
    "prenatal_tests" -> HospitalData.prenatalTests(spark, HospitalN),
    "patients_all" -> HospitalData.joinedDf(spark, HospitalN),
    "flights" -> flightsDf(spark, FlightN),
  )

  /** `n` synthetic flights, the rows of [[FlightData.flightRow]]. */
  def flightsDf(spark: SparkSession, n: Long, seed: Long = 202L): DataFrame = {
    import spark.implicits._
    spark.range(n).map(i => FlightData.flightRow(i, seed)).toDF()
  }

  /** Sessions of their own over the shared Spark context, with every table
    * as a temp view: `optimized` has Raven installed, `reference` only its
    * runtime (the unoptimized baseline).
    */
  lazy val optimized: SparkSession = session(Raven.install(_))
  lazy val reference: SparkSession = session(Raven.installRuntimeOnly)

  private def session(install: SparkSession => Unit): SparkSession = {
    val s = SparkSpec.shared.newSession()
    install(s)
    frames(s).foreach { case (name, df) => df.createOrReplaceTempView(name) }
    s
  }

  /** Parquet copies of the hospital tables, whose columns read back
    * nullable, as temp views of sessions of their own: `parquetOptimized`
    * has Raven installed, `parquetReference` only its runtime. Besides the
    * three tables of the Fig. 1 join:
    *  - `patient_info` holds one more row, whose `patient_id` is NULL,
    *  - `visits` has two rows per patient,
    *  - `prenatal_copy` reads the files of `prenatal_tests`,
    *  - `prenatal_archive` is a copy of `prenatal_tests` in files of its own.
    */
  lazy val parquetOptimized: SparkSession = parquetSession(Raven.install(_))
  lazy val parquetReference: SparkSession = parquetSession(Raven.installRuntimeOnly)

  private lazy val parquetFiles: Map[String, String] = {
    val s = SparkSpec.shared
    val dir = java.nio.file.Files.createTempDirectory("raven-parquet")
    sys.addShutdownHook(JavaUtils.deleteRecursively(dir.toFile))
    val nullKey = s.sql("SELECT CAST(NULL AS BIGINT) AS patient_id, 40 AS age, 'M' AS gender, " +
      "0 AS pregnant, 1 AS num_prev_admissions")
    val written = Map(
      "patient_info" -> HospitalData.patientInfo(s, HospitalN).unionByName(nullKey),
      "blood_tests" -> HospitalData.bloodTests(s, HospitalN),
      "prenatal_tests" -> HospitalData.prenatalTests(s, HospitalN),
      "prenatal_archive" -> HospitalData.prenatalTests(s, HospitalN),
      "visits" -> s.range(2 * HospitalN).selectExpr("id DIV 2 AS patient_id", "id % 2 AS visit"),
    ).map { case (name, df) =>
      val path = dir.resolve(name).toString
      df.coalesce(1).write.parquet(path)
      name -> path
    }
    written + ("prenatal_copy" -> written("prenatal_tests"))
  }

  private def parquetSession(install: SparkSession => Unit): SparkSession = {
    val s = SparkSpec.shared.newSession()
    // the tests read plans and rows, not join strategies: broadcast the small tables
    s.conf.set("spark.sql.autoBroadcastJoinThreshold", "10MB")
    install(s)
    parquetFiles.foreach { case (name, path) => s.read.parquet(path).createOrReplaceTempView(name) }
    s
  }

  /** Runs `f` with `catalog` declared to Raven's join elimination in `spark`. */
  def withIntegrity[A](spark: SparkSession, catalog: SchemaCatalog = hospitalCatalog)(f: => A): A = {
    RavenIntegrity.declare(spark, catalog)
    try f
    finally RavenIntegrity.clear(spark)
  }

  /** Runs `f` with `rules` in place of the optimized session's Raven rules. */
  def withRules[A](rules: Seq[Rule[LogicalPlan]])(f: => A): A = {
    val exp = optimized.experimental
    val saved = exp.extraOptimizations
    exp.extraOptimizations = rules
    try f
    finally exp.extraOptimizations = saved
  }

  /** DataFrames for every table; also registered as temp views on first use. */
  def tables(spark: SparkSession): Map[String, DataFrame] = {
    val m = frames(spark)
    if (!registered) synchronized {
      if (!registered) {
        m.foreach { case (name, df) => df.createOrReplaceTempView(name) }
        registered = true
      }
    }
    m
  }

  /** Sorted-row equality of two frames with per-value numeric tolerance.
    * Rows are ordered by their non-floating fields (tests select a unique
    * key column, so ordering is stable), then compared pairwise. Returns
    * the number of rows.
    */
  def assertSameRows(a: DataFrame, b: DataFrame, eps: Double = 1e-9): Int = {
    require(a.columns.toSeq == b.columns.toSeq,
      s"column mismatch: ${a.columns.toSeq} vs ${b.columns.toSeq}")
    def sortKey(r: Seq[Any]): String = r.collect {
      case s: String => s
      case i: Int    => f"$i%020d"
      case l: Long   => f"$l%020d"
    }.mkString("|")
    val ra = a.collect().toSeq.map(_.toSeq).sortBy(sortKey)
    val rb = b.collect().toSeq.map(_.toSeq).sortBy(sortKey)
    require(ra.size == rb.size, s"row count differs: ${ra.size} vs ${rb.size}")
    ra.zip(rb).zipWithIndex.foreach { case ((x, y), i) =>
      x.zip(y).foreach {
        case (dx: Double, dy: Double) =>
          require(math.abs(dx - dy) <= eps, s"row $i: $dx vs $dy (eps=$eps)\n  a=$x\n  b=$y")
        case (vx, vy) =>
          require(vx == vy, s"row $i: $vx vs $vy\n  a=$x\n  b=$y")
      }
    }
    ra.size
  }
}
