package repro.bench

import repro.bench.BenchUtil._
import repro.data.FlightData

/** Table 2 — Model-projection pushdown (Fig. 2(a)).
  *
  * Paper numbers (flight LR, scikit-learn, two best-AUC L1 models):
  *  - 41.75% zero weights → ~1.7× faster inference
  *  - 80.96% zero weights → ~5.3× faster inference
  *
  * The sparse models are pinned to the paper's exact sparsity levels; the
  * optimized path is the projection the model registry derives
  * (`optimizeFor(Nil)`), which drops the zero-weight features from both
  * the model and the featurization.
  */
object T2ProjectionPushdown {

  def run(scoreRows: Int = 200000): BenchTable = {
    val pipe = FlightData.pipeline
    val cohort = FlightData.localFlights(scoreRows, seed = 97).map(FlightData.rawValues)

    val rows = Seq(
      ("LR 41.75% sparse", BenchModels.flightLrSparse4175),
      ("LR 80.96% sparse", BenchModels.flightLrSparse8096),
    ).map { case (label, model) =>
      val mp = BenchModels.flightLrPipeline.copy(id = label, model = model)
      val projected = mp.optimizeFor(Nil)._1
      val score = projected.scorerFor(mp.inputCols)

      val tFull = timeMillis()(mp.predictRawBatch(cohort))
      val tProj = timeMillis() {
        var i = 0
        while (i < cohort.length) { score(cohort(i)); i += 1 }
      }
      cohort.take(1000).foreach { r =>
        val (a, b) = (mp.predictRaw(r), score(r))
        require(math.abs(a - b) < 1e-9, s"projection diverged: $a vs $b")
      }
      Seq(label, pct(model.sparsity), pipe.numFeatures.toString, projected.pipeline.numFeatures.toString,
        fmt(tFull), fmt(tProj), fmtX(tFull / tProj))
    }

    BenchTable(
      s"T2: model-projection pushdown, flight LR ($scoreRows rows) " +
        "[paper Fig 2(a): ~1.7x at 41.75%, ~5.3x at 80.96%]",
      Seq("model", "sparsity", "features", "features_kept", "t_full_ms", "t_projected_ms", "speedup"),
      rows)
  }

  def main(args: Array[String]): Unit = run().print()
}
