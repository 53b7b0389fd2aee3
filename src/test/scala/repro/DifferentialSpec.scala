package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.analysis.{PipelineScript, StaticAnalyzer}
import repro.ml.ModelPipeline
import repro.sparkext.{Raven, RavenRuntime}

/** The IR paths (the SQL analyzer's and the PyLite analyzer's Catalyst
  * plans, run by `Raven.run`), the SQL `raven_predict` path and the
  * DataFrame `RavenRuntime.predictBatch` path, all under Raven's rules,
  * against the same query on a session with only the runtime installed. Each model is queried under each cohort filter,
  * filtered query first and unfiltered first, under an id of its own, so
  * that the variants one query derives meet the other query.
  */
class DifferentialSpec extends AnyFunSuite with SparkSpec {
  import DifferentialSpec._

  private val hospitalFilters = Seq("pregnant = 1", "pregnant = 0", "age > 35", "gender = 'F'")
  private val flightFilters = Seq("month = 1", "month = 2", "dep_hour > 17", "dest = 'AP00'")
  private lazy val families = Seq(
    Family("hand_dt", TestModels.handTreePipeline, "patients_all", "patient_id", hospitalFilters),
    Family("hospital_rf", TestModels.hospitalForestPipeline, "patients_all", "patient_id", hospitalFilters),
    Family("hospital_mlp", TestModels.hospitalMlpPipeline, "patients_all", "patient_id", hospitalFilters),
    Family("flight_lr", TestModels.flightLrPipeline, "flights", "flight_id", flightFilters),
    // the T2 model: its variants drop single one-hot categories
    Family("flight_lr_sparse", TestModels.flightLrPipeline.copy(model = TestModels.flightLr.sparsify(0.8096)),
      "flights", "flight_id", flightFilters),
  )

  private def where(filter: Option[String]): String = filter.fold("")(w => s" WHERE $w")

  private def irRows(s: SparkSession, f: Family, mp: ModelPipeline, filter: Option[String]): Seq[(Long, Double)] = {
    val sql = s"SELECT ${f.key}, PREDICT(model) AS score FROM ${f.table}${where(filter)}"
    val a = StaticAnalyzer.analyzeSql(sql, TestTables.hospitalCatalog, Map("model" -> mp))
    rows(Raven.run(s, a.ir))
  }

  /** The cohort filter `col op literal` as a PyLite script line. */
  private def scriptFilter(w: String): String = {
    val Array(c, op, lit) = w.split(" ")
    s"df = df[df.$c ${if (op == "=") "==" else op} ${lit.replace('\'', '"')}]"
  }

  private def scriptRows(s: SparkSession, f: Family, mp: ModelPipeline, filter: Option[String]): Seq[(Long, Double)] = {
    val script = (Seq(s"""df = read("${f.table}")""") ++ filter.map(scriptFilter) ++ Seq(
      """m = load_model("model")""", "df = m.predict(df)", s"""df = df[["${f.key}", "prediction"]]""", "return df"))
    val p = PipelineScript.analyze(script.mkString("\n"), TestTables.hospitalCatalog, Map("model" -> mp)).plans.head
    rows(Raven.run(s, p.ir))
  }

  private def sqlRows(s: SparkSession, f: Family, mp: ModelPipeline, filter: Option[String]): Seq[(Long, Double)] =
    rows(s.sql(s"SELECT ${f.key}, ${Raven.predictSql(mp.id)} AS score FROM ${f.table}${where(filter)}"))

  private def dfRows(s: SparkSession, f: Family, mp: ModelPipeline, filter: Option[String]): Seq[(Long, Double)] = {
    val table = s.table(f.table)
    val in = filter.fold(table)(w => table.where(w))
    rows(RavenRuntime.predictBatch(in, mp.id, "score").select(f.key, "score"))
  }

  private def rows(df: DataFrame): Seq[(Long, Double)] =
    df.collect().map(r => r.getLong(0) -> r.getDouble(1)).sortBy(_._1).toSeq

  test("IR-lowered and SQL predictions equal the unoptimized ones, in either query order") {
    val failures = Seq.newBuilder[String]
    for (f <- families) {
      Raven.deploy(f.mp)
      val cohorts = f.filters.map(Some(_)) :+ None
      val reference = cohorts.map(w => w -> sqlRows(TestTables.reference, f, f.mp, w)).toMap
      for ((filter, i) <- cohorts.zipWithIndex; filteredFirst <- Seq(true, false) if filter.nonEmpty || filteredFirst;
           (path, run) <- Seq("ir" -> irRows _, "script" -> scriptRows _, "sql" -> sqlRows _, "df" -> dfRows _)) {
        // a fresh id: no variants derived by earlier queries
        val mp = f.mp.copy(id = s"diff_${f.name}_${i}_${filteredFirst}_$path")
        Raven.deploy(mp)
        for (w <- if (filteredFirst) Seq(filter, None) else Seq(None, filter)) {
          val label = s"${f.name} $path ${w.getOrElse("unfiltered")} (${if (filteredFirst) "filtered" else "unfiltered"} first)"
          val want = reference(w)
          try {
            val got = run(TestTables.optimized, f, mp, w)
            if (want.isEmpty) failures += s"$label: no rows"
            else if (got != want) {
              val diff = got.zipAll(want, null, null).filter { case (g, e) => g != e }
              failures += s"$label: ${diff.size} rows differ, first (got, want) ${diff.head}"
            }
          } catch { case e: Exception => failures += s"$label: ${e.getClass.getSimpleName}: ${e.getMessage}" }
        }
      }
    }
    val all = failures.result()
    assert(all.isEmpty, all.mkString(s"${all.size} failures:\n", "\n", ""))
  }
}

object DifferentialSpec {
  private final case class Family(name: String, mp: ModelPipeline, table: String, key: String, filters: Seq[String])
}
