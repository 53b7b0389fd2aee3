package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ml.{FeaturePipeline, OneHotEncoder}

/** Synthetic hospital length-of-stay data, standing in for the paper's
  * patient dataset (the Microsoft "Predicting Hospital Length of Stay"
  * sample, which is not redistributable). Three tables joined on
  * `patient_id`, with a planted ground-truth function so trained trees
  * split on the columns the running example needs (`pregnant`, `bp`,
  * `age` at 35).
  */
object HospitalData {

  final case class PatientInfo(
      patient_id: Long, age: Int, gender: String, pregnant: Int, num_prev_admissions: Int)
  final case class BloodTest(
      patient_id: Long, hematocrit: Double, neutrophils: Double, glucose: Double, bmi: Double, pulse: Int)
  final case class PrenatalTest(
      patient_id: Long, bp: Double, fetal_hr: Double, gestation_weeks: Double)

  /** One fully-joined row plus the regression label. */
  final case class Joined(
      patient_id: Long, age: Int, gender: String, pregnant: Int, num_prev_admissions: Int,
      hematocrit: Double, neutrophils: Double, glucose: Double, bmi: Double, pulse: Int,
      bp: Double, fetal_hr: Double, gestation_weeks: Double, lengthofstay: Double)

  private def rng(i: Long, seed: Long): scala.util.Random =
    new scala.util.Random(seed ^ (i * 0x9E3779B97F4A7C15L))

  def joinedRow(i: Long, seed: Long = 101L): Joined = {
    val r = rng(i, seed)
    val age = 18 + r.nextInt(72)
    val gender = if (r.nextDouble() < 0.5) "F" else "M"
    val pregnant = if (gender == "F" && age < 50 && r.nextDouble() < 0.4) 1 else 0
    val prevAdm = r.nextInt(5)
    val hematocrit = 35 + r.nextGaussian() * 5
    val neutrophils = 55 + r.nextGaussian() * 12
    val glucose = 95 + r.nextGaussian() * 25
    val bmi = 26 + r.nextGaussian() * 5
    val pulse = 60 + r.nextInt(50)
    val bp = 105 + r.nextGaussian() * 20 + (if (age > 55) 12 else 0)
    val fetalHr = if (pregnant == 1) 140 + r.nextGaussian() * 12 else 0.0
    val gestation = if (pregnant == 1) 8 + r.nextDouble() * 32 else 0.0

    val los = 2.0 +
      (if (pregnant == 1 && bp > 140) 6.0 else 0.0) +
      (if (pregnant == 1 && gestation < 26) 4.0 else 0.0) +
      (if (age > 35) 2.0 else 0.0) +
      (if (glucose > 130) 1.5 else 0.0) +
      0.5 * prevAdm +
      math.max(0.0, (bmi - 32) * 0.2) +
      r.nextGaussian() * 0.5
    Joined(i, age, gender, pregnant, prevAdm, hematocrit, neutrophils, glucose, bmi, pulse,
      bp, fetalHr, gestation, math.max(0.0, los))
  }

  /** Local joined rows (training / driver-side baselines). */
  def localJoined(n: Int, seed: Long = 101L): Array[Joined] =
    Array.tabulate(n)(i => joinedRow(i.toLong, seed))

  /** The featurization pipeline deployed with every hospital model. */
  val pipeline: FeaturePipeline = FeaturePipeline(
    numericCols = Seq("age", "pregnant", "num_prev_admissions", "hematocrit", "neutrophils",
      "glucose", "bmi", "pulse", "bp", "fetal_hr", "gestation_weeks"),
    encoders = Seq(OneHotEncoder("gender", IndexedSeq("F", "M"))),
  )

  /** Feature matrix + label vector in [[pipeline]] layout. */
  def featurized(rows: Array[Joined]): (Array[Array[Double]], Array[Double]) = {
    (rows.map(j => pipeline.transform(rawValues(j))), rows.map(_.lengthofstay))
  }

  /** Raw values of one joined row in [[pipeline]] input order. */
  def rawValues(j: Joined): IndexedSeq[Any] = IndexedSeq(
    j.age, j.pregnant, j.num_prev_admissions, j.hematocrit, j.neutrophils,
    j.glucose, j.bmi, j.pulse, j.bp, j.fetal_hr, j.gestation_weeks, j.gender)

  // ---- Spark-side tables --------------------------------------------------

  def joinedDf(spark: SparkSession, n: Long, seed: Long = 101L): DataFrame = {
    import spark.implicits._
    spark.range(n).map(i => joinedRow(i, seed)).toDF()
  }

  def patientInfo(spark: SparkSession, n: Long, seed: Long = 101L): DataFrame = {
    import spark.implicits._
    spark.range(n).map { i =>
      val j = joinedRow(i, seed)
      PatientInfo(j.patient_id, j.age, j.gender, j.pregnant, j.num_prev_admissions)
    }.toDF()
  }

  def bloodTests(spark: SparkSession, n: Long, seed: Long = 101L): DataFrame = {
    import spark.implicits._
    spark.range(n).map { i =>
      val j = joinedRow(i, seed)
      BloodTest(j.patient_id, j.hematocrit, j.neutrophils, j.glucose, j.bmi, j.pulse)
    }.toDF()
  }

  def prenatalTests(spark: SparkSession, n: Long, seed: Long = 101L): DataFrame = {
    import spark.implicits._
    spark.range(n).map { i =>
      val j = joinedRow(i, seed)
      PrenatalTest(j.patient_id, j.bp, j.fetal_hr, j.gestation_weeks)
    }.toDF()
  }
}
