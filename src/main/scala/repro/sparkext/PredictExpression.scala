package repro.sparkext

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.analysis.TypeCheckResult
import org.apache.spark.sql.catalyst.expressions.{Expression, Literal}
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String
import repro.ml.{ColPredicate, ModelPipeline, ModelPruner}

/** The `PREDICT` scalar expression: invokes a model pipeline on each input
  * row, inside the query plan (the paper's in-process PREDICT operator,
  * §5). SQL `raven_predict`, the DataFrame [[RavenRuntime.predictBatch]]
  * and the static analyzers build it. The plan carries its model, as
  * Fig. 1's query carries `@model`: `pipeline` is the one deployed when
  * the query was analyzed, or a variant of it, and then `derivation` holds
  * that root and the facts the variant was derived under.
  *
  * It scores one row at a time. `CodegenFallback` keeps the surrounding
  * plan codegen-able while the model call stays interpreted.
  */
final case class PredictExpression(
    pipeline: ModelPipeline,
    children: Seq[Expression],
    derivation: Option[(ModelPipeline, Set[ColPredicate])] = None,
) extends Expression with CodegenFallback {

  def modelId: String = pipeline.id

  override def dataType: DataType = DoubleType
  override def nullable: Boolean = false
  override def prettyName: String = "raven_predict"
  // the id, not the model: a plan's description would otherwise render every tree
  override def toString: String = s"$prettyName($modelId, ${children.mkString(", ")})"

  /** Only numbers, booleans and strings: a TIMESTAMP or DATE would reach
    * the pipeline as Spark's internal microseconds or days.
    */
  override def checkInputDataTypes(): TypeCheckResult = children.map(_.dataType).zipWithIndex.collectFirst {
    case (t, i) if !(t.isInstanceOf[NumericType] || t.isInstanceOf[StringType] || t == BooleanType || t == NullType) =>
      TypeCheckResult.TypeCheckFailure(s"raven_predict argument ${i + 2} has type ${t.sql}; expected a number, BOOLEAN or STRING")
  }.getOrElse(TypeCheckResult.TypeCheckSuccess)

  override def eval(input: InternalRow): Any = {
    val n = children.size
    val vals = new Array[Any](n)
    var i = 0
    while (i < n) { vals(i) = PredictExpression.rawValue(children(i).eval(input)); i += 1 }
    pipeline.predictRaw(scala.collection.immutable.ArraySeq.unsafeWrapArray(vals))
  }

  /** This predict's variant `<root id>#<hash of the facts>` (pruned, then
    * projected) under the facts held plus `preds`, over the arguments it
    * reads. It is this instance if `preds` adds no fact, or if the model has
    * a scaler or cannot be reindexed (an MLP).
    */
  def specializedFor(preds: Seq[ColPredicate]): PredictExpression = {
    val root = derivation.fold(pipeline)(_._1)
    val held = derivation.map(_._2)
    val facts = held.getOrElse(Set.empty) ++ preds
    if (root.scaler.nonEmpty || !ModelPruner.reindexable(root.model) || held.contains(facts)) this
    else {
      // one order per set of facts: a variant's id and bits depend on nothing else
      val ordered = facts.toSeq.sortBy(_.toString)
      val variant = root.optimizeFor(ordered)._1
        .copy(id = f"${root.id}#${scala.util.hashing.MurmurHash3.stringHash(ordered.mkString("&"))}%08x")
      val cols = pipeline.inputCols
      val missing = variant.inputCols.filterNot(cols.contains)
      if (missing.nonEmpty) throw new IllegalStateException(
        s"variant '${variant.id}' of '${root.id}' reads ${missing.mkString(", ")}, which '$modelId' does not")
      PredictExpression(variant, variant.inputCols.map(c => children(cols.indexOf(c))), Some(root -> facts))
    }
  }

  override protected def withNewChildrenInternal(newChildren: IndexedSeq[Expression]): Expression =
    copy(children = newChildren)
}

object PredictExpression {

  /** A Spark value as the pipelines read it: a string as a `String`, and a
    * DECIMAL as its double, in a numeric column and a categorical one alike.
    */
  private[sparkext] def rawValue(v: Any): Any = v match {
    case s: UTF8String => s.toString
    case d: Decimal    => d.toDouble
    case other         => other
  }

  /** Builder for SQL registration: `raven_predict('model_id', f1, f2, ...)`
    * resolves the id when the query is analyzed. Argument order must match
    * the pipeline's `inputCols`.
    */
  def fromArgs(args: Seq[Expression]): PredictExpression = {
    require(args.nonEmpty, "raven_predict needs a model id argument")
    val id = args.head match {
      case Literal(s: UTF8String, StringType) => s.toString
      case other => throw new IllegalArgumentException(s"first argument must be a model id string, got $other")
    }
    val mp = ModelRegistry.get(id)
    require(args.size - 1 == mp.inputCols.size,
      s"model '$id' expects ${mp.inputCols.size} feature columns (${mp.inputCols.mkString(",")}), got ${args.size - 1}")
    PredictExpression(mp, args.tail)
  }
}
