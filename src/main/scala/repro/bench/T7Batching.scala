package repro.bench

import repro.bench.BenchUtil._
import repro.data.HospitalData
import repro.ml.{NNPipelineModel, NNTranslator}

/** Table 7 — Batch vs per-tuple inference (§5 observation v).
  *
  * Paper: Raven gained about an order of magnitude by performing batch
  * inference instead of one prediction per tuple.
  * A batch is raw rows scored by the pipeline graph through
  * `NNPipelineModel`, feeds included, as in `predictNNBatch`.
  */
object T7Batching {

  def run(rows: Int = 20000, batchSizes: Seq[Int] = Seq(1, 16, 256, 4096)): BenchTable = {
    val mp = BenchModels.hospitalForestPipeline
    val nn = NNPipelineModel(NNTranslator.translatePipeline(mp), mp.pipeline)
    val raw = HospitalData.localJoined(rows, seed = 89).map(HospitalData.rawValues).toIndexedSeq

    val table = batchSizes.map { bs =>
      val t = timeMillis(warmup = 1, reps = 2) {
        var i = 0
        while (i < raw.length) {
          nn.predictRawBatch(raw.slice(i, math.min(raw.length, i + bs)))
          i += bs
        }
      }
      (bs, t)
    }
    val perTuple = table.head._2

    BenchTable(
      s"T7: batch vs per-tuple inference, hospital RF-NN ($rows rows) [paper: ~10x from batching]",
      Seq("batch_size", "time_ms", "speedup_vs_per_tuple"),
      table.map { case (bs, t) => Seq(bs.toString, fmt(t), fmtX(perTuple / t)) })
  }

  def main(args: Array[String]): Unit = run().print()
}
