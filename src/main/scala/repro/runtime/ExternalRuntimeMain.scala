package repro.runtime

import java.nio.file.Paths

/** Entry point of the external-language runtime process — the analogue of
  * `sp_execute_external_script` spawning a Python/R interpreter (§5,
  * "Raven Ext").
  *
  * Protocol: raw feature rows as CSV on stdin, one prediction per line on
  * stdout. The JVM start, model load, and pipe transfers are the real
  * overheads the paper attributes to out-of-process execution.
  */
object ExternalRuntimeMain {

  def main(args: Array[String]): Unit = {
    require(args.length >= 1, "usage: ExternalRuntimeMain <modelDir> [batchSize] [nn|classic]")
    val modelDir = Paths.get(args(0))
    val batchSize = if (args.length > 1) args(1).toInt else 4096
    val mode = if (args.length > 2) args(2) else "nn"

    val out = new java.io.BufferedWriter(new java.io.OutputStreamWriter(System.out), 1 << 20)
    val in = CsvData.readerOf(System.in)
    mode match {
      case "nn" =>
        val nn = OrtStandalone.loadModel(modelDir)
        CsvData.linesBatches(in, batchSize).foreach { batch =>
          // the graph computes in float32: print that value
          nn.predictRawBatch(batch).foreach { p => out.write(p.toFloat.toString); out.newLine() }
        }
      case "classic" =>
        // the scikit-learn analogue: interpreted per-row pipeline scoring
        val mp = repro.sparkext.ModelRegistry.load(modelDir.resolve("classic.bin"))
        CsvData.linesBatches(in, batchSize).foreach { batch =>
          batch.foreach { row => out.write(mp.predictRaw(row).toString); out.newLine() }
        }
      case other => throw new IllegalArgumentException(s"unknown mode '$other'")
    }
    out.flush()
  }
}
