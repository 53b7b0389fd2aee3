package repro.perfbench

import java.nio.file.Files
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, count, lit, sum}
import repro.data.HospitalData
import repro.ml.{ColPredicate, ModelPipeline}
import repro.runtime.{CsvData, OutOfProcess}
import repro.sparkext.{Raven, RavenRuntime}

/** One timed operation. `run` is what is timed; it returns the check of
  * its own answer, which runs untimed afterwards and gives `None` when the
  * answer is right, else the cause. `corrupt` perturbs the reference
  * answer, to prove the check can fail. `mode` is one of [[Fixture.Modes]];
  * `preds` are the predicates a SQL op's model can be specialized for.
  */
final case class Op(
    mode: String, shape: String, rowsScored: Long, preds: Seq[ColPredicate], run: () => (Boolean => Option[String]))

/** The ops of one workload, cycled through in a seeded order. */
trait Workload {
  def name: String
  def ops: IndexedSeq[Op]
  /** Ops that fail on the current program by a defect README.md describes. They are not timed
    * or counted: each runs once after the timed ops, and its outcome is reported.
    */
  def knownFailing: IndexedSeq[Op]
  /** Setup's last step: fills the caches a timed op would otherwise fill. */
  def warmUp(): Unit
  /** Scan-only variants of the workload's queries (input columns instead of the predict). */
  def scanQueries: Seq[String]
  /** The workload's inference queries in the IR analyzer's SQL dialect. */
  def irQueries: Seq[String]
}

object Workloads {

  val InputCols: Seq[String] = HospitalData.pipeline.inputCols
  /** Threshold of the `score > t` predicate per family (mlp scores a probability). */
  val Threshold: Map[String, Double] = Map("dt" -> 7.0, "rf" -> 7.0, "mlp" -> 0.5)

  def predictSql(modelId: String): String = s"raven_predict('$modelId', ${InputCols.mkString(", ")})"

  /** A numeric expression reading every model input, standing in for the predict. */
  val inputsSql: String = (InputCols.init :+ s"length(${InputCols.last})").mkString(" + ")

  def near(a: Double, b: Double, rel: Double, abs: Double = 0.0): Boolean =
    math.abs(a - b) <= math.max(abs, rel * math.max(1.0, math.abs(b)))

  /** Classic paths are checked to relative 1e-9; NN and external paths compute in float32
    * and get the tolerance the NN translation tests use.
    */
  def matches(got: Double, want: Double, nn: Boolean): Boolean =
    if (nn) near(got, want, 1e-4, abs = 1e-3) else near(got, want, 1e-9)

  /** What a corrupted reference reads instead of `v`: 1 % off, outside every tolerance above,
    * with the row count left as it is.
    */
  def corrupted(v: Double): Double = v + 0.01 * math.max(1.0, math.abs(v))

  /** Runs a query through the phases Spark runs it in, one span each. */
  def collect(tracer: Tracer, build: => DataFrame): Array[Row] = {
    val df = tracer.span("spark.analyze")(build)
    val qe = df.queryExecution
    val optimized = tracer.span("sparkext.optimize")(qe.optimizedPlan)
    tracer.span("sparkext.plan")(qe.executedPlan)
    val out = tracer.span("sparkext.execute")(df.collect())
    if (tracer.enabled) {
      val (remaining, inlined, derived, joinsRemoved) = PlanStats.rewrites(qe.analyzed, optimized)
      tracer.count("sparkext.predicts_remaining", remaining)
      tracer.count("sparkext.predicts_inlined", inlined)
      tracer.count("sparkext.derived_variants", derived)
      tracer.count("sparkext.joins_removed", joinsRemoved)
      val (files, bytes, cols) = PlanStats.scans(qe.executedPlan)
      tracer.count("spark.scan_files", files)
      tracer.count("spark.scan_bytes", bytes)
      tracer.count("spark.scan_columns", cols)
    }
    out
  }

  /** Checks a `(count, checksum)` answer. */
  def checkSum(rows: Long, checksum: Double, wantRows: Long, want: Double, nn: Boolean, corrupt: Boolean)
      : Option[String] =
    if (rows != wantRows) Some("wrong_row_count")
    else if (!matches(checksum, if (corrupt) corrupted(want) else want, nn)) Some("wrong_answer")
    else None

  /** Raven Ext: exports the model inputs of `rows` to CSV, then scores them with the mlp NN
    * model in a separate process.
    */
  def external(fx: Fixture, tracer: Tracer, rows: DataFrame): OutOfProcess.Result = {
    val csv = fx.dir.resolve("export.csv")
    tracer.span("runtime.export") {
      CsvData.write(rows.select(InputCols.map(col): _*).collect().iterator.map(_.toSeq.toIndexedSeq), csv)
    }
    try tracer.span("runtime.ext_run")(OutOfProcess.run(fx.dir.resolve("ext_model"), csv, mode = "nn"))
    finally Files.deleteIfExists(csv)
  }

  def checkExternal(res: OutOfProcess.Result, wantRows: Long, want: Double, corrupt: Boolean): Option[String] =
    if (res.exitCode != 0) Some("nonzero_exit")
    else checkSum(res.rows, res.checksum, wantRows, want, nn = true, corrupt)

  /** Reference predictions of `family` for `rows`, computed outside Spark. */
  def predictions(fx: Fixture, family: String, rows: Array[HospitalData.Joined]): Array[Double] =
    java.util.stream.IntStream.range(0, rows.length).parallel()
      .mapToDouble(i => fx.pipelines(family).predictRaw(HospitalData.rawValues(rows(i)))).toArray

  def apply(name: String, fx: Fixture, sizes: Sizes, tracer: Tracer): Workload = name match {
    case "interactive" => new Interactive(fx, sizes, tracer, churn = false)
    case "model_churn" => new Interactive(fx, sizes, tracer, churn = true)
    case "bulk_score"  => new BulkScore(fx, sizes, tracer)
    case other         => throw new IllegalArgumentException(s"unknown workload '$other'")
  }
}

/** Queries over `patient_info ⋈ blood_tests ⋈ prenatal_tests` in a
  * `patient_id` window, in every execution mode. The SQL modes run the
  * Fig. 1 query, with the predict in the SELECT list and in `score > t`,
  * under each cohort filter (`rf_pruned` under `pregnant = 1` only). The
  * NN modes score the window's rows through `predictNNBatch`; `external`
  * exports them and scores them out of process.
  *
  * With `churn`, only the SQL families run, and each op first deploys a new
  * version of its family's model under an id of its own, then queries with it.
  */
final class Interactive(fx: Fixture, sizes: Sizes, tracer: Tracer, churn: Boolean) extends Workload {
  import Workloads._

  def name: String = if (churn) "model_churn" else "interactive"

  private final case class Shape(mode: String, cohort: Cohort, window: Int) {
    def id: String = s"$mode/${cohort.name}/$window"
    def family: String = Fixture.familyOf(mode)
    def sqlMode: Boolean = mode == family || mode == Fixture.PrunedRf
    private def filter: Seq[String] = Seq(s"pi.patient_id < $window") ++ cohort.sql
    private val from =
      """FROM patient_info pi
        |JOIN blood_tests bt ON pi.patient_id = bt.patient_id
        |JOIN prenatal_tests pt ON pi.patient_id = pt.patient_id""".stripMargin
    def sql(modelId: String): String =
      s"""SELECT pi.patient_id, ${predictSql(modelId)} AS score
         |$from
         |WHERE ${(filter :+ s"${predictSql(modelId)} > ${Threshold(family)}").mkString(" AND ")}""".stripMargin
    /** The window's model inputs, for the NN and external modes. */
    def inputs: String = s"SELECT pi.patient_id, ${InputCols.mkString(", ")}\n$from\nWHERE ${filter.mkString(" AND ")}"
    def scan: String = s"SELECT pi.patient_id, $inputsSql AS inputs\n$from\nWHERE ${filter.mkString(" AND ")}"
    lazy val scored: Array[HospitalData.Joined] = fx.rows.iterator.take(window).filter(cohort.keep).toArray
  }

  private val shapes: IndexedSeq[Shape] = {
    val sql = for (f <- Fixture.Families; c <- Cohort.All; w <- sizes.windows) yield Shape(f, c, w)
    // external runs on the small window only: its time is mostly the start of a process, and
    // on both windows it took 40 % of the workload's time.
    val others = for (m <- Fixture.Modes.filterNot(Fixture.Families.contains);
                      w <- if (m == "external") sizes.windows.take(1) else sizes.windows)
      yield Shape(m, if (m == Fixture.PrunedRf) Cohort.Pregnant else Cohort.Unfiltered, w)
    (if (churn) sql else sql ++ others).toIndexedSeq
  }

  /** Every SQL mlp query fails: pruning through a scaler is not supported. On interactive, so
    * does a dt or rf query under a cohort whose pruned model lacks an input that the model's
    * unfiltered projection reads: the derivation memo (README.md) hands the pruned model that
    * projection.
    */
  private def knownToFail(s: Shape): Boolean =
    s.mode == "mlp" || (!churn && Fixture.Families.contains(s.mode) && {
      val mp = fx.pipelines(s.mode)
      !mp.optimizeFor(Nil)._1.inputCols.toSet.subsetOf(mp.optimizeFor(s.cohort.preds)._1.inputCols.toSet)
    })

  /** `(patient_id, score)` of the rows a shape returns when scored with `mp`. */
  private def expected(mp: ModelPipeline, s: Shape): Array[(Long, Double)] = {
    val all = s.scored.map(j => j.patient_id -> mp.predictRaw(HospitalData.rawValues(j)))
    if (s.sqlMode) all.filter(_._2 > Threshold(s.family)) else all
  }

  /** Reference answers of the deployed models, computed outside Spark. */
  private val reference: Map[String, Array[(Long, Double)]] =
    if (churn) Map.empty else shapes.map(s => s.id -> expected(fx.pipelines(s.family), s)).toMap

  /** Row by row on the SQL modes. The NN modes return the same ids, and their scores are
    * checked as a checksum, as the NN translation's own checks do: a float32 feature within
    * rounding of a tree threshold can take the other branch, which moves that row's score.
    */
  private def check(got: Array[Row], want: Array[(Long, Double)], nn: Boolean, corrupt: Boolean): Option[String] = {
    val g = got.map(r => r.getLong(0) -> r.getDouble(1)).sortBy(_._1)
    val w = if (corrupt) want.map { case (id, v) => id -> corrupted(v) } else want
    if (g.length != w.length) Some("wrong_row_count")
    else if (g.indices.exists(i => g(i)._1 != w(i)._1)) Some("wrong_answer")
    else if (nn) checkSum(g.length, g.map(_._2).sum, w.length, w.map(_._2).sum, nn, corrupt = false)
    else if (g.indices.exists(i => !matches(g(i)._2, w(i)._2, nn))) Some("wrong_answer")
    else None
  }

  /** Runs one shape, scoring with `mp` in the SQL modes; returns the check of its answer. */
  private def runShape(s: Shape, mp: ModelPipeline): Boolean => Option[String] = s.mode match {
    case "external" =>
      val res = external(fx, tracer, fx.spark.sql(s.inputs))
      val want = reference(s.id)
      corrupt => checkExternal(res, want.length, want.map(_._2).sum, corrupt)
    case nn if !s.sqlMode =>
      val got = collect(tracer,
        RavenRuntime.predictNNBatch(fx.spark.sql(s.inputs), fx.nn(nn), "score").select("patient_id", "score"))
      corrupt => check(got, reference(s.id), nn = true, corrupt)
    case _ =>
      val got = collect(tracer, fx.spark.sql(s.sql(mp.id)))
      corrupt => check(got, if (churn) expected(mp, s) else reference(s.id), nn = false, corrupt)
  }

  private val nextVersion = scala.collection.mutable.Map[String, Int]().withDefaultValue(0)
  var versionsReused = 0

  private def op(s: Shape): Op =
    Op(s.mode, s.id, s.scored.length, if (s.sqlMode) s.cohort.preds else Nil, () => {
      val mp =
        if (!churn) fx.pipelines(if (s.sqlMode) s.mode else s.family)
        else {
          val n = nextVersion(s.family)
          nextVersion(s.family) = n + 1
          val pool = fx.versions(s.family)
          if (n >= pool.size) versionsReused += 1
          val v = pool(n % pool.size).copy(id = s"${s.family}@v$n")
          tracer.span("sparkext.deploy")(Raven.deploy(v))
          v
        }
      runShape(s, mp)
    })

  private val (failing, timed) = shapes.partition(knownToFail)
  val ops: IndexedSeq[Op] = timed.map(op)
  val knownFailing: IndexedSeq[Op] = failing.map(op)

  /** Every timed query twice, with the deployed models, so that the timed ops find Spark's caches
    * and the JIT warm. Each model's unfiltered queries go first; see README.md for why the
    * order matters.
    */
  def warmUp(): Unit =
    for (_ <- 1 to 2; s <- timed.sortBy(_.cohort.sql.nonEmpty)) {
      try runShape(s, fx.pipelines(if (s.sqlMode) s.mode else s.family))
      catch { case NonFatal(_) => () } // a failing query fails in the timed ops too
    }

  def scanQueries: Seq[String] = shapes.map(s => s.copy(mode = "dt")).distinct.map(_.scan)

  def irQueries: Seq[String] = shapes.filter(s => Fixture.Families.contains(s.mode)).map { s =>
    s"""SELECT patient_id, PREDICT(${s.family}) AS score
       |FROM patient_info
       |JOIN blood_tests ON patient_info.patient_id = blood_tests.patient_id
       |JOIN prenatal_tests ON patient_info.patient_id = prenatal_tests.patient_id
       |WHERE ${(Seq(s"patient_id < ${s.window}") ++ s.cohort.sql ++
        Seq(s"PREDICT(${s.family}) > ${Threshold(s.family)}")).mkString(" AND ")}""".stripMargin
  }
}

/** Scores the whole joined table per op, rotating modes: the
  * three families through SQL `raven_predict`; the rf pruned for the
  * `pregnant = 1` cohort, which is inlined inside `sum`; the rf and mlp
  * pipelines through NN translation and `RavenRuntime.predictNNBatch`; and
  * the mlp NN model out of process on an exported slice. Each returns a
  * count and a checksum.
  */
final class BulkScore(fx: Fixture, sizes: Sizes, tracer: Tracer) extends Workload {
  import Workloads._

  def name: String = "bulk_score"

  private val pregnant = fx.rows.filter(_.pregnant == 1)
  /** Reference checksums: the pipelines' own per-row predictions, summed outside Spark. */
  private val refSum: Map[String, Double] = Fixture.Families.map(f => f -> predictions(fx, f, fx.rows).sum).toMap
  private val prunedRefSum = predictions(fx, "rf", pregnant).sum
  private val extRefSum = predictions(fx, "mlp", fx.rows.take(sizes.extRows)).sum

  private def aggOp(mode: String, rows: Long, want: Double, nn: Boolean)(df: => DataFrame): Op =
    Op(mode, mode, rows, Nil, () => {
      val got = collect(tracer, df)(0)
      (corrupt: Boolean) => checkSum(got.getLong(0), got.getDouble(1), rows, want, nn, corrupt)
    })

  private def sqlOp(f: String): Op = aggOp(f, sizes.bulkRows, refSum(f), nn = false) {
    fx.spark.sql(s"SELECT count(*) AS n, sum(${predictSql(f)}) AS s FROM patients_all")
  }

  private val prunedOp = aggOp(Fixture.PrunedRf, pregnant.length, prunedRefSum, nn = false) {
    fx.spark.sql(
      s"SELECT count(*) AS n, sum(${predictSql(Fixture.PrunedRf)}) AS s FROM patients_all WHERE pregnant = 1")
  }

  private def nnOp(mode: String): Op = aggOp(mode, sizes.bulkRows, refSum(Fixture.NNOf(mode)), nn = true) {
    val in = fx.spark.table("patients_all").select(InputCols.map(col): _*)
    RavenRuntime.predictNNBatch(in, fx.nn(mode), "score").agg(count(lit(1)).as("n"), sum("score").as("s"))
  }

  private val extOp = Op("external", "external", sizes.extRows, Nil, () => {
    val res = external(fx, tracer, fx.spark.table("patients_all").where(s"patient_id < ${sizes.extRows}"))
    (corrupt: Boolean) => checkExternal(res, sizes.extRows, extRefSum, corrupt)
  })

  /** dt and rf take a fraction of the time of the other modes, and their times spread the
    * most: they run twice per round, so that their medians rest on twice the samples.
    */
  val ops: IndexedSeq[Op] =
    (Seq("dt", "rf", "dt", "rf").map(sqlOp) ++ Seq(prunedOp) ++ Fixture.NNOf.keys.toSeq.sorted.map(nnOp) :+ extOp)
      .toIndexedSeq
  /** The SQL mlp: pruning through its scaler is not supported. */
  val knownFailing: IndexedSeq[Op] = IndexedSeq(sqlOp("mlp"))

  /** Every op three times: the scoring loops take that long to reach their JIT-compiled speed. */
  def warmUp(): Unit =
    for (_ <- 1 to 3; op <- ops) {
      try op.run()
      catch { case NonFatal(_) => () } // a failing mode fails in the timed ops too
    }

  def scanQueries: Seq[String] = Seq(s"SELECT count(*) AS n, sum($inputsSql) AS s FROM patients_all")

  def irQueries: Seq[String] =
    Fixture.Families.map(f => s"SELECT patient_id, PREDICT($f) AS score FROM patients_all")
}
