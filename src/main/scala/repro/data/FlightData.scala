package repro.data

import repro.ml.{FeaturePipeline, OneHotEncoder}

/** Synthetic flight-delay data, standing in for the Kaggle US-DOT
  * flight-delays dataset used in the paper (offline container — no
  * download). Categorical columns (airline, origin, dest) are
  * zipf-skewed so model clustering finds clusters dominated by few
  * airports, and the planted delay function depends on airline/airport
  * effects so one-hot weights are non-trivial.
  */
object FlightData {

  val NumAirlines = 14
  val NumAirports = 100

  val airlines: IndexedSeq[String] = (0 until NumAirlines).map(i => f"AL$i%02d")
  val airports: IndexedSeq[String] = (0 until NumAirports).map(i => f"AP$i%02d")

  final case class Flight(
      flight_id: Long, month: Int, day_of_week: Int, dep_hour: Int, distance: Double,
      airline: String, origin: String, dest: String, delayed: Int)

  private def rng(i: Long, seed: Long): scala.util.Random =
    new scala.util.Random(seed ^ (i * 0x9E3779B97F4A7C15L))

  /** Skewed categorical draw: low indices are much more frequent. */
  private def zipfIdx(r: scala.util.Random, n: Int): Int =
    math.min(n - 1, (math.pow(r.nextDouble(), 2.5) * n).toInt)

  // Deterministic per-category effects on the delay logit.
  private def airlineEffect(a: Int): Double = ((a * 2654435761L) % 100) / 100.0 - 0.5
  private def airportEffect(a: Int): Double = ((a * 40503L) % 100) / 100.0 - 0.5

  def flightRow(i: Long, seed: Long = 202L): Flight = {
    val r = rng(i, seed)
    val month = 1 + r.nextInt(12)
    val dow = 1 + r.nextInt(7)
    val depHour = r.nextInt(24)
    val distance = 200 + math.pow(r.nextDouble(), 1.5) * 2800
    val airline = zipfIdx(r, NumAirlines)
    val origin = zipfIdx(r, NumAirports)
    val dest = zipfIdx(r, NumAirports)

    val logit = -1.2 +
      (if (depHour >= 17) 0.9 else 0.0) +
      (if (month == 12 || month == 1 || month == 6) 0.5 else 0.0) +
      airlineEffect(airline) * 1.2 +
      airportEffect(origin) * 0.9 +
      airportEffect(dest) * 0.6 +
      distance / 3000.0 * 0.4 +
      r.nextGaussian() * 0.3
    val p = 1.0 / (1.0 + math.exp(-logit))
    Flight(i, month, dow, depHour, distance, airlines(airline), airports(origin), airports(dest),
      if (r.nextDouble() < p) 1 else 0)
  }

  def localFlights(n: Int, seed: Long = 202L): Array[Flight] =
    Array.tabulate(n)(i => flightRow(i.toLong, seed))

  /** Featurization deployed with every flight model: 4 numerics + one-hot
    * airline/origin/dest = 218 features.
    */
  val pipeline: FeaturePipeline = FeaturePipeline(
    numericCols = Seq("month", "day_of_week", "dep_hour", "distance"),
    encoders = Seq(
      OneHotEncoder("airline", airlines),
      OneHotEncoder("origin", airports),
      OneHotEncoder("dest", airports),
    ),
  )

  def rawValues(f: Flight): IndexedSeq[Any] =
    IndexedSeq(f.month, f.day_of_week, f.dep_hour, f.distance, f.airline, f.origin, f.dest)

  def featurized(rows: Array[Flight]): (Array[Array[Double]], Array[Double]) =
    (rows.map(f => pipeline.transform(rawValues(f))), rows.map(_.delayed.toDouble))
}
