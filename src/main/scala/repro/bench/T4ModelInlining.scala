package repro.bench

import java.nio.file.Files
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.sum
import repro.bench.BenchUtil._
import repro.data.HospitalData
import repro.ml.RandomForestModel
import repro.runtime.{CsvData, OutOfProcess}
import repro.sparkext.{InlinedTrees, ModelRegistry, Raven, RavenRuntime}

/** Table 4 — Model inlining (Fig. 2(c)).
  *
  * Paper numbers (hospital decision tree, 300K tuples): translating the
  * tree to SQL and inlining it yields ~17× over scikit-learn reading the
  * data from the DB — most of the gain comes from avoiding data movement
  * and staying inside the engine; adding predicate-based pruning brings
  * the total to ~24.5×.
  *
  * Reproduction mapping: "scikit-learn reading from the DB" = the model
  * runs in a separate framework process that the engine exports rows to
  * (a real forked JVM fed over pipes, like the paper's external Python);
  * an in-driver collect+score ablation isolates the process-boundary cost;
  * "inlined" = the same `raven_predict` on a session with Raven's rules,
  * which inline the tree (pruned by the cohort's predicate) as an
  * [[InlinedTrees]] expression that whole-stage codegen compiles, running
  * scan+score distributed in-engine.
  *
  * Two more rows time the benchmark's forest shape, ten depth-5 trees, as
  * the per-row PREDICT operator and inlined, on the same rows.
  */
object T4ModelInlining {

  def run(spark: SparkSession, rows: Int = 300000): BenchTable = {
    val mp = BenchModels.hospitalTreePipeline
    Raven.deploy(mp)

    val work = Files.createTempDirectory("t4")
    val modelDir = work.resolve("model")
    Files.createDirectories(modelDir)
    ModelRegistry.save(mp, modelDir.resolve("classic.bin"))

    val df = HospitalData.joinedDf(spark, rows, seed = 92).cache()
    df.count() // materialize the "database table"

    val rawIdx = mp.inputCols.map(df.schema.fieldIndex).toArray

    /** Framework outside the DB: export the table and pipe it through a
      * separate interpreter process scoring per row.
      */
    def sklearnExternal(d: DataFrame): Double = {
      val csv = work.resolve("export.csv")
      val rows = d.collect()
      CsvData.write(rows.iterator.map(r => rawIdx.map(r.get).toIndexedSeq: IndexedSeq[Any]), csv)
      val res = OutOfProcess.run(modelDir, csv, mode = "classic")
      require(res.exitCode == 0 && res.rows == rows.length, s"external run failed: $res")
      res.checksum
    }
    def sklearnDriver(d: DataFrame): Double =
      mp.predictRawBatch(d.collect().map(r => rawIdx.map(r.get).toIndexedSeq: IndexedSeq[Any])).sum
    def predictOp(d: DataFrame): Double = collectSum(RavenRuntime.predictBatch(d, mp.id, "score"))

    // the same PREDICT under Raven's rules, which inline the tree: a session
    // of their own over the same cached rows
    val raven = spark.newSession()
    Raven.install(raven)
    df.createOrReplaceGlobalTempView("t4_rows")
    val ravenDf = raven.table("global_temp.t4_rows")
    val ravenCohort = ravenDf.filter("pregnant = 1")
    def inlinedVariants(d: DataFrame, id: String = mp.id): Seq[String] =
      RavenRuntime.predictBatch(d, id, "score").queryExecution.optimizedPlan
        .flatMap(_.expressions.flatMap(_.collect { case e: InlinedTrees => e.variantId }))
    require(inlinedVariants(ravenDf).size == 1, "Raven did not inline the tree")
    require(inlinedVariants(ravenCohort).exists(_.contains('#')), "Raven did not inline a pruned variant on the cohort")

    val rf = BenchModels.hospitalForestPipeline
    Raven.deploy(rf)
    require(inlinedVariants(ravenDf, rf.id).size == 1, "Raven did not inline the forest")
    def predictRf(d: DataFrame): Double = collectSum(RavenRuntime.predictBatch(d, rf.id, "score"))
    val rfSums = Seq(predictRf(df), predictRf(ravenDf))
    require(math.abs(rfSums(1) - rfSums(0)) / math.abs(rfSums(0)) < 1e-9, s"forest paths diverged: $rfSums")

    // correctness: all paths agree on the checksum
    val sums = Seq(sklearnExternal(df), sklearnDriver(df), predictOp(df), predictOp(ravenDf))
    require(sums.forall(s => math.abs(s - sums.head) / math.abs(sums.head) < 1e-4), s"paths diverged: $sums")

    val tExternal = timeMillis(warmup = 0, reps = 2)(sklearnExternal(df))
    val tDriver = timeMillis(warmup = 1, reps = 2)(sklearnDriver(df))
    val tPredict = timeMillis(warmup = 1, reps = 2)(predictOp(df))
    val tInline = timeMillis(warmup = 1, reps = 2)(predictOp(ravenDf))
    val tPredictRf = timeMillis(warmup = 1, reps = 2)(predictRf(df))
    val tInlineRf = timeMillis(warmup = 1, reps = 2)(predictRf(ravenDf))

    // pruning on top: pregnant = 1 cohort
    val cohort = df.filter("pregnant = 1").cache()
    cohort.count()
    val tExternalCohort = timeMillis(warmup = 0, reps = 2)(sklearnExternal(cohort))
    val tInlinePruned = timeMillis(warmup = 1, reps = 2)(predictOp(ravenCohort))

    spark.catalog.dropGlobalTempView("t4_rows")
    df.unpersist(); cohort.unpersist()

    BenchTable(
      s"T4: model inlining, hospital DT ($rows rows) [paper Fig 2(c): inlining ~17x, +pruning ~24.5x]",
      Seq("path", "rows", "time_ms", "speedup_vs_sklearn"),
      Seq(
        Seq("sklearn out-of-DB (export + external process)", rows.toString, fmt(tExternal), "1.00x"),
        Seq("sklearn in-driver (collect + per-row)", rows.toString, fmt(tDriver), fmtX(tExternal / tDriver)),
        Seq("in-engine PREDICT operator", rows.toString, fmt(tPredict), fmtX(tExternal / tPredict)),
        Seq("inlined by Raven (whole-stage codegen)", rows.toString, fmt(tInline), fmtX(tExternal / tInline)),
        Seq("sklearn out-of-DB on pregnant=1 cohort", "cohort", fmt(tExternalCohort), "1.00x"),
        Seq("inlined + predicate-pruned on cohort", "cohort", fmt(tInlinePruned), fmtX(tExternalCohort / tInlinePruned)),
        Seq(s"forest (${rf.model.asInstanceOf[RandomForestModel].totalNodes} nodes): in-engine PREDICT operator",
          rows.toString, fmt(tPredictRf), "-"),
        Seq("forest: inlined by Raven, speedup vs its PREDICT", rows.toString, fmt(tInlineRf), fmtX(tPredictRf / tInlineRf)),
      ))
  }

  private def collectSum(df: DataFrame): Double =
    df.agg(sum("score")).collect()(0).getDouble(0)

  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("T4ModelInlining")
    run(spark).print()
    spark.stop()
  }
}
