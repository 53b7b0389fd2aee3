package repro.ml

import repro.linalg.Tensor
import repro.onnx.{GraphDef, Session}

/** A whole NN-translated pipeline: raw rows in, predictions out. Feeds the
  * graph one column at a time (numerics as-is, categoricals as vocabulary
  * indices). Every NN path turns rows into feeds here, the GPU's included.
  */
final case class NNPipelineModel(graph: GraphDef, pipeline: FeaturePipeline) extends Serializable {

  @transient private lazy val session = new Session(graph)

  def inputCols: Seq[String] = pipeline.inputCols

  def predictRawBatch(rows: IndexedSeq[IndexedSeq[Any]]): Array[Double] = {
    if (rows.isEmpty) return Array.empty
    val out = session.run(feeds(rows))
    require(out.cols == 1, s"${graph.name}: expected single output column")
    out.data.map(_.toDouble)
  }

  /** One column tensor per graph input for raw rows in [[inputCols]] order. */
  def feeds(rows: IndexedSeq[IndexedSeq[Any]]): Map[String, Tensor] = {
    val cols = pipeline.inputCols
    val perRow = rows.map(pipeline.toGraphFeeds)
    cols.zipWithIndex.map { case (c, i) =>
      c -> new Tensor(rows.size, 1, Array.tabulate(rows.size)(r => perRow(r)(i).toFloat))
    }.toMap
  }
}
