package repro.bench

import repro.bench.BenchUtil._
import repro.core.opt.ModelClustering
import repro.data.{FlightData, HospitalData}

/** Table 3 — Model clustering (Fig. 2(b)).
  *
  * Paper numbers (flight, 700K tuples): inference time reduced by up to
  * 54%, gains growing (with diminishing returns) in the cluster count;
  * clustering itself costs 0.4–42 s (run offline on a sample); model
  * compile time is negligible; hospital shows no benefit because its
  * categorical features are already binary.
  */
object T3ModelClustering {

  def run(scoreRows: Int = 200000, sampleN: Int = 20000): Seq[BenchTable] =
    Seq(runFlight(scoreRows, sampleN), runHospital(scoreRows / 2, sampleN))

  def runFlight(scoreRows: Int, sampleN: Int): BenchTable = {
    val mp = BenchModels.flightLrPipeline
    val sample = FlightData.localFlights(sampleN, seed = 96).map(FlightData.rawValues)
    val cohort = FlightData.localFlights(scoreRows, seed = 95).map(FlightData.rawValues)

    // Base path uses the same scorer shape (the base pipeline's scorer over
    // its own columns) so the measured delta comes from dropped features only.
    val tBase = medianMillis(warmup = 2, reps = 7)(scorePartition(mp.scorerFor(mp.inputCols), cohort))
    val baseRow = Seq("k=1 (no clustering)", "-", mp.pipeline.numFeatures.toString,
      "-", fmt(tBase), "-")

    val rows = Seq(2, 4, 8, 16, 32).map { k =>
      val clustered = ModelClustering.compile(mp, sample, k)
      // Routing happens offline (historical data is clustered and stored
      // partitioned); inference scores each partition with its compiled model.
      val partitions = cohort.groupBy(clustered.assign)
      val t = medianMillis(warmup = 2, reps = 7) {
        partitions.foreach { case (c, rows) => scorePartition(clustered.clusters(c).scoreRaw, rows) }
      }
      // fallback-correctness accounting: how many routed rows violate invariants
      val violations = cohort.count { r =>
        val feats = mp.pipeline.transform(r)
        val cl = clustered.clusters(clustered.assign(r))
        !cl.invariants.forall { case (i, v) => feats(i) == v }
      }
      Seq(s"k=$k", s"${clustered.clusterMillis + clustered.compileMillis}",
        f"${clustered.meanFeatures}%.1f", pct(violations.toDouble / cohort.length),
        fmt(t), pct(1 - t / tBase))
    }

    BenchTable(
      s"T3a: model clustering, flight LR ($scoreRows rows; clustering on $sampleN-row sample) " +
        "[paper Fig 2(b): up to 54% reduction, diminishing with k]",
      Seq("clusters", "cluster+compile_ms", "mean_features", "fallback_rate", "t_ms", "reduction"),
      baseRow +: rows)
  }

  def runHospital(scoreRows: Int, sampleN: Int): BenchTable = {
    val mp = BenchModels.hospitalTreePipeline
    val sample = HospitalData.localJoined(sampleN, seed = 94).map(HospitalData.rawValues)
    val cohort = HospitalData.localJoined(scoreRows, seed = 93).map(HospitalData.rawValues)

    val tBase = medianMillis(warmup = 2, reps = 7)(scorePartition(mp.scorerFor(mp.inputCols), cohort))

    val clustered = ModelClustering.compile(mp, sample, k = 8)
    val partitions = cohort.groupBy(clustered.assign)
    val t = medianMillis(warmup = 2, reps = 7) {
      partitions.foreach { case (c, rows) => scorePartition(clustered.clusters(c).scoreRaw, rows) }
    }
    BenchTable(
      s"T3b: model clustering, hospital DT ($scoreRows rows, k=8) [paper: no benefit]",
      Seq("config", "mean_features", "t_ms", "reduction"),
      Seq(
        Seq("base", mp.pipeline.numFeatures.toString, fmt(tBase), "-"),
        Seq("clustered k=8", f"${clustered.meanFeatures}%.1f", fmt(t), pct(1 - t / tBase)),
      ))
  }

  private def scorePartition(score: IndexedSeq[Any] => Double, rows: Array[IndexedSeq[Any]]): Double = {
    var s = 0.0
    var i = 0
    while (i < rows.length) { s += score(rows(i)); i += 1 }
    s
  }

  def main(args: Array[String]): Unit = run().foreach(_.print())
}
