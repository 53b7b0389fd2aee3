package repro.runtime

import java.nio.file.Path
import repro.ml.{FeaturePipeline, NNPipelineModel}
import repro.onnx.ModelFormat

/** The standalone "ORT" baseline of §5 / Fig. 3: a dedicated inference
  * process outside the database.
  *
  * Per query it (1) loads the model graph from disk, (2) builds a fresh
  * inference session (graph optimization included — there is no session
  * cache across queries, only the OS file-system cache underneath), (3)
  * reads the input data from a file single-threaded, and (4) runs batched
  * single-threaded inference. This mirrors what the paper measures for
  * standalone ONNX Runtime.
  */
object OrtStandalone {

  final case class Result(rows: Long, checksum: Double)

  /** Save a translated pipeline for standalone execution: the LA graph in
    * the OnnxLite binary format plus the featurization metadata (vocab
    * maps) the feeder needs — the analogue of ONNX-ML's in-model encoders.
    */
  def saveModel(graph: repro.onnx.GraphDef, pipeline: FeaturePipeline, dir: Path): Unit = {
    java.nio.file.Files.createDirectories(dir)
    ModelFormat.save(graph, dir.resolve("model.onnxlite"))
    val out = new java.io.ObjectOutputStream(java.nio.file.Files.newOutputStream(dir.resolve("pipeline.bin")))
    try out.writeObject(pipeline)
    finally out.close()
  }

  /** A saved model as a fresh `NNPipelineModel`, whose session is built on first use. */
  def loadModel(dir: Path): NNPipelineModel = {
    val in = new java.io.ObjectInputStream(java.nio.file.Files.newInputStream(dir.resolve("pipeline.bin")))
    val pipeline = try in.readObject().asInstanceOf[FeaturePipeline] finally in.close()
    NNPipelineModel(ModelFormat.load(dir.resolve("model.onnxlite")), pipeline)
  }

  /** One full query: model load + session build + data read + inference. */
  def run(modelDir: Path, csvPath: Path, batchSize: Int = 4096): Result = {
    val nn = loadModel(modelDir) // a fresh session (optimization passes included) every query
    var rows = 0L
    var checksum = 0.0
    CsvData.readBatches(csvPath, batchSize).foreach { batch =>
      val preds = nn.predictRawBatch(batch)
      rows += preds.length
      var i = 0
      while (i < preds.length) { checksum += preds(i); i += 1 }
    }
    Result(rows, checksum)
  }
}
