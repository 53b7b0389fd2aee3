package repro.sparkext

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.analysis.TypeCheckResult
import org.apache.spark.sql.catalyst.expressions.{Expression, Literal}
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String

/** The `PREDICT` scalar expression: invokes a deployed model pipeline on
  * each input row, inside the query plan (the paper's in-process PREDICT
  * operator, §5). SQL `raven_predict` and the DataFrame
  * [[RavenRuntime.predictBatch]] both build it.
  *
  * It scores one row at a time. `CodegenFallback` keeps the surrounding
  * plan codegen-able while the model call stays interpreted.
  */
final case class PredictExpression(modelId: String, children: Seq[Expression])
    extends Expression with CodegenFallback {

  @transient private lazy val pipeline = ModelRegistry.get(modelId)

  override def dataType: DataType = DoubleType
  override def nullable: Boolean = false
  override def prettyName: String = "raven_predict"

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

  /** Builder for SQL registration: `raven_predict('model_id', f1, f2, ...)`.
    * Argument order must match the deployed pipeline's `inputCols`.
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
    PredictExpression(id, args.tail)
  }
}
