package repro.ml

/** A model pipeline in the paper's sense: data featurization steps plus a
  * trained model, deployed and invoked as a unit.
  *
  * Raw inputs are positional in [[FeaturePipeline.inputCols]] order.
  * An optional scaler (fitted on featurized vectors) sits between
  * featurization and the model, as in typical MLP pipelines.
  */
final case class ModelPipeline(
    id: String,
    pipeline: FeaturePipeline,
    scaler: Option[StandardScaler],
    model: Model,
) extends Serializable {

  def inputCols: Seq[String] = pipeline.inputCols

  def predictRaw(raw: IndexedSeq[Any]): Double = {
    val feats = pipeline.transform(raw)
    model.predict(scaler.map(_.transform(feats)).getOrElse(feats))
  }

  /** Score raw rows one by one on the calling thread: the classical
    * framework's path, outside the engine.
    */
  def predictRawBatch(rows: scala.collection.IndexedSeq[IndexedSeq[Any]]): Array[Double] = {
    val out = new Array[Double](rows.length)
    var i = 0
    while (i < out.length) { out(i) = predictRaw(rows(i)); i += 1 }
    out
  }

  /** Scorer of rows laid out in `cols`, such as the [[inputCols]] of the
    * pipeline this one was projected from: each row is scored on the
    * values of this pipeline's columns, whose positions in `cols` are
    * looked up once.
    */
  def scorerFor(cols: Seq[String]): IndexedSeq[Any] => Double = {
    val pos = inputCols.map(cols.indexOf).toArray
    require(!pos.contains(-1), s"'$id' reads ${inputCols.filterNot(cols.contains).mkString(", ")}, not in ${cols.mkString(", ")}")
    raw => {
      val sub = new Array[Any](pos.length)
      var i = 0
      while (i < pos.length) { sub(i) = raw(pos(i)); i += 1 }
      predictRaw(scala.collection.immutable.ArraySeq.unsafeWrapArray(sub))
    }
  }

  /** Apply predicate-based pruning followed by model-projection pushdown.
    * Returns the optimized pipeline and the raw columns it no longer needs.
    */
  def optimizeFor(predicates: Seq[ColPredicate]): (ModelPipeline, Seq[String]) = {
    require(scaler.isEmpty, "pruning through a scaler is not supported; fold the scaler first")
    val constraints = ModelPruner.toFeatureConstraints(pipeline, predicates)
    val pruned = ModelPruner.prune(model, constraints)
    val (newPipe, projected, dropped) = ModelPruner.projectPipeline(pipeline, pruned)
    (copy(pipeline = newPipe, model = projected), dropped)
  }
}
