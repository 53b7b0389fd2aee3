package repro.bench

import repro.bench.BenchUtil._
import repro.data.{FlightData, HospitalData}
import repro.ml._

/** Table 1 — Predicate-based model pruning (§4.1).
  *
  * Paper numbers:
  *  - hospital decision tree, filter `pregnant = 1`: prediction time −29%.
  *  - flight logistic regression, filter on destination airport: ~2.1×,
  *    regardless of the filter's selectivity.
  */
object T1PredicatePruning {

  def run(scoreRows: Int = 100000): Seq[BenchTable] = Seq(runTree(scoreRows), runLr(scoreRows))

  /** Decision-tree pruning: prediction time (the paper's metric — model
    * scoring over already-featurized vectors) on the pregnant cohort, full
    * vs pregnant=1-specialized tree.
    */
  def runTree(scoreRows: Int): BenchTable = {
    val mp = BenchModels.hospitalTreePipeline
    val tree = BenchModels.hospitalTree
    val all = HospitalData.localJoined(scoreRows, seed = 99)
    val cohortRaw = resample(all.filter(_.pregnant == 1).map(HospitalData.rawValues), scoreRows * 4)
    val cohort = cohortRaw.map(mp.pipeline.transform)

    val constraints = ModelPruner.toFeatureConstraints(mp.pipeline,
      Seq(NumRange("pregnant", FeatureConstraint.equalTo(1.0))))
    val pruned = ModelPruner.pruneTree(tree, constraints)

    def score(m: DecisionTreeModel): Double = {
      var s = 0.0; var i = 0
      while (i < cohort.length) { s += m.predict(cohort(i)); i += 1 }
      s
    }
    require(score(tree) == score(pruned), "pruned tree diverged on the cohort")

    // interleaved min-of-pairs: robust against GC pauses and JIT churn
    var tFull = Double.MaxValue
    var tPruned = Double.MaxValue
    score(tree); score(pruned)
    for (_ <- 1 to 9) {
      tFull = math.min(tFull, timeMillis(warmup = 0, reps = 1)(score(tree)))
      tPruned = math.min(tPruned, timeMillis(warmup = 0, reps = 1)(score(pruned)))
    }

    // the same models as pipeline graphs scored from raw rows, as the engine
    // runs them: dense LA, whose cost is proportional to node count
    val nnFull = NNPipelineModel(NNTranslator.translatePipeline(mp), mp.pipeline)
    val nnPruned = NNPipelineModel(NNTranslator.translatePipeline(mp.copy(model = pruned)), mp.pipeline)
    val raw = cohortRaw.toIndexedSeq
    def scoreNN(nn: NNPipelineModel): Array[Double] =
      raw.grouped(8192).map(nn.predictRawBatch).toArray.flatten
    require(scoreNN(nnFull).sameElements(scoreNN(nnPruned)), "pruned graph diverged on the cohort")
    var tNnFull = Double.MaxValue
    var tNnPruned = Double.MaxValue
    for (_ <- 1 to 3) {
      tNnFull = math.min(tNnFull, timeMillis(warmup = 0, reps = 1)(scoreNN(nnFull)))
      tNnPruned = math.min(tNnPruned, timeMillis(warmup = 0, reps = 1)(scoreNN(nnPruned)))
    }

    BenchTable(
      s"T1a: predicate-based pruning, hospital DT, pregnant=1 cohort (${cohort.length} rows) " +
        "[paper: -29% prediction time]",
      Seq("model", "nodes", "time_ms", "improvement"),
      Seq(
        Seq("full tree (interpreted)", tree.nodeCount.toString, fmt(tFull), "-"),
        Seq("pruned tree (interpreted)", pruned.nodeCount.toString, fmt(tPruned), pct(1 - tPruned / tFull)),
        Seq("full tree (LA pipeline graph)", tree.nodeCount.toString, fmt(tNnFull), "-"),
        Seq("pruned tree (LA pipeline graph)", pruned.nodeCount.toString, fmt(tNnPruned), pct(1 - tNnPruned / tNnFull)),
      ))
  }

  /** Categorical-predicate pruning on logistic regression, swept over
    * destination selectivity: the one-hot dest block folds into the
    * intercept and the specialized model reads far fewer features.
    */
  def runLr(scoreRows: Int): BenchTable = {
    val mp = BenchModels.flightLrPipeline
    val flights = FlightData.localFlights(scoreRows * 4, seed = 98)
    val dests = Seq("AP00" -> "high", "AP30" -> "medium", "AP75" -> "low")

    val rows = dests.map { case (dest, selLabel) =>
      val matching = flights.filter(_.dest == dest).map(FlightData.rawValues)
      val cohort = resample(matching, scoreRows)
      val selectivity = matching.length.toDouble / flights.length

      val (optimized, _) = mp.optimizeFor(Seq(CatEquals("dest", dest)))
      val score = optimized.scorerFor(mp.inputCols)

      // interleave the two measurements: min-of-pairs is robust against
      // GC/background pauses that would skew back-to-back medians
      var tFull = Double.MaxValue
      var tPruned = Double.MaxValue
      mp.predictRawBatch(cohort); scoreAll(score, cohort) // warmup
      for (_ <- 1 to 5) {
        tFull = math.min(tFull, timeMillis(warmup = 0, reps = 1)(mp.predictRawBatch(cohort)))
        tPruned = math.min(tPruned, timeMillis(warmup = 0, reps = 1)(scoreAll(score, cohort)))
      }
      verifyEqual(cohort.take(500), mp.predictRaw, score, 1e-9)

      Seq(s"dest=$dest ($selLabel)", pct(selectivity),
        mp.pipeline.numFeatures.toString, optimized.pipeline.numFeatures.toString,
        fmt(tFull), fmt(tPruned), fmtX(tFull / tPruned))
    }

    BenchTable(
      s"T1b: predicate-based pruning, flight LR, filter on dest ($scoreRows scored rows each) " +
        "[paper: ~2.1x regardless of selectivity]",
      Seq("filter", "selectivity", "features_full", "features_pruned", "t_full_ms", "t_pruned_ms", "speedup"),
      rows)
  }

  /** Scores `cohort` with a pruned pipeline that also skips the dropped raw
    * columns (the data-side effect of the optimization).
    */
  private def scoreAll(score: IndexedSeq[Any] => Double, cohort: Array[IndexedSeq[Any]]): Double = {
    var s = 0.0
    var i = 0
    while (i < cohort.length) { s += score(cohort(i)); i += 1 }
    s
  }

  private def resample(rows: Array[IndexedSeq[Any]], n: Int): Array[IndexedSeq[Any]] = {
    require(rows.nonEmpty, "no rows match the benchmark filter")
    Array.tabulate(n)(i => rows(i % rows.length))
  }

  private def verifyEqual(
      rows: Array[IndexedSeq[Any]],
      a: IndexedSeq[Any] => Double,
      b: IndexedSeq[Any] => Double,
      eps: Double = 0.0): Unit =
    rows.take(1000).foreach { r =>
      val (x, y) = (a(r), b(r))
      require(math.abs(x - y) <= eps, s"pruned model diverged: $x vs $y")
    }

  def main(args: Array[String]): Unit = run().foreach(_.print())
}
