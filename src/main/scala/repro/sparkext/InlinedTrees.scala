package repro.sparkext

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Expression, Literal}
import org.apache.spark.sql.catalyst.expressions.codegen._
import org.apache.spark.sql.catalyst.expressions.codegen.Block._
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String
import repro.ml.{DecisionTreeModel, Leaf, ModelPipeline, RandomForestModel, Split, TreeNode}

/** An inlined tree model (§4.2), the output of [[RavenRules.ModelInlining]]:
  * a deployed tree or forest, scored inside the generated code of the stage
  * that reads its inputs.
  *
  * `scored` is the deployed variant projected onto the features its trees
  * read, and `children` are the predict's arguments for its input columns.
  * A row scores as `scored.predictRaw` scores the arguments' values: the
  * featurization of [[repro.ml.FeaturePipeline]], then a single tree's
  * value, or the forest's tree values summed left to right from 0.0 and
  * divided by the tree count.
  *
  * Generated code fills a `double[]` of features per row. A numeric
  * argument converts to a double; a categorical one clears its one-hot
  * block and sets its category's slot through a hash lookup, so the fill
  * grows with the arguments, not with the categories. Each tree is scored
  * in a method of its own, and each subtree of over
  * [[InlinedTrees.SubtreeNodes]] nodes in one more, so that no method
  * reaches HotSpot's 8 000-byte limit for JIT compilation.
  */
final case class InlinedTrees(scored: ModelPipeline, children: Seq[Expression]) extends Expression {
  import InlinedTrees._

  private def trees: IndexedSeq[DecisionTreeModel] = scored.model match {
    case t: DecisionTreeModel => IndexedSeq(t)
    case f: RandomForestModel => f.trees
  }

  def variantId: String = scored.id

  override def dataType: DataType = DoubleType
  override def nullable: Boolean = false
  override def prettyName: String = "raven_inlined"
  override def toString: String = s"$prettyName($variantId, ${trees.size} trees, ${trees.map(_.nodeCount).sum} nodes)"

  override def eval(input: InternalRow): Any =
    scored.predictRaw(children.map(c => PredictExpression.rawValue(c.eval(input))).toIndexedSeq)

  override protected def doGenCode(ctx: CodegenContext, ev: ExprCode): ExprCode = {
    val pipeline = scored.pipeline
    val x = ctx.addMutableState("double[]", "ravenX", v => s"$v = new double[${pipeline.numFeatures}];", forceInline = true)
    val numCount = pipeline.numericCols.size
    var off = numCount
    val fill = children.zipWithIndex.map { case (c, i) =>
      val e = c.genCode(ctx)
      val store = if (i < numCount) s"$x[$i] = ${asDouble(c.dataType, e.isNull, e.value)};" else {
        val enc = pipeline.encoders(i - numCount)
        val index = ctx.addReferenceObj("ravenCategories", categoryIndex(enc.categories))
        val k = ctx.freshName("category")
        val s = s"java.util.Arrays.fill($x, $off, ${off + enc.width}, 0.0);\n" +
          s"Integer $k = (Integer) $index.get(${asKey(c.dataType, e.isNull, e.value)});\n" +
          s"if ($k != null) $x[$off + $k.intValue()] = 1.0;"
        off += enc.width
        s
      }
      code"${e.code}\n$store"
    }
    val calls = trees.map(t => method(t.root, ctx))
    val score = scored.model match {
      case _: DecisionTreeModel => s"${calls.head}($x)"
      case _ => // as RandomForestModel.predict: from 0.0, left to right, then divided
        val sum = calls.grouped(TreesPerMethod).foldLeft("0.0") { (acc, group) =>
          val fn = ctx.freshName("ravenForest")
          val adds = group.map(c => s"s += $c(x);").mkString("\n")
          ctx.addNewFunction(fn, s"private double $fn(double s, double[] x) {\n$adds\nreturn s;\n}") + s"($acc, $x)"
        }
        s"$sum / ${trees.size}.0"
    }
    ev.copy(isNull = FalseLiteral, code =
      code"""${fill.foldLeft[Block](EmptyBlock)(_ + _)}
            |double ${ev.value} = $score;""".stripMargin)
  }

  /** A method scoring the subtree at `n`; returns the name to call it by. */
  private def method(n: TreeNode, ctx: CodegenContext): String = {
    val fn = ctx.freshName("ravenTree")
    ctx.addNewFunction(fn, s"private double $fn(double[] x) {\n${body(n, ctx)}\n}")
  }

  /** Nested `if`s over `x`, each threshold and leaf a Java literal of its
    * exact value; a child subtree of over [[SubtreeNodes]] nodes is a call.
    */
  private def body(n: TreeNode, ctx: CodegenContext): String = n match {
    case Leaf(v) => s"return ${Literal(v).genCode(ctx).value};"
    case Split(f, t, l, r) =>
      def branch(c: TreeNode) = if (c.size > SubtreeNodes) s"return ${method(c, ctx)}(x);" else body(c, ctx)
      s"if (x[$f] < ${Literal(t).genCode(ctx).value}) {\n${branch(l)}\n} else {\n${branch(r)}\n}"
  }

  override protected def withNewChildrenInternal(newChildren: IndexedSeq[Expression]): Expression =
    copy(children = newChildren)
}

object InlinedTrees {

  // HotSpot JIT-compiles no method of over 8 000 bytes of bytecode (its
  // HugeMethodLimit); a larger one stays interpreted. In the generated
  // methods no step compiles to more than 16 bytes: a split's load, compare
  // and branch, a leaf's return, a forest's add, or a call of a method that
  // may sit in a nested class.
  private val MaxMethodBytes = 8000
  private val MaxStepBytes = 16

  /** A subtree of more nodes is scored by a method of its own. A method then
    * holds its root and, per child, the child's subtree or a call: at most
    * 2 * SubtreeNodes + 1 steps.
    */
  val SubtreeNodes: Int = (MaxMethodBytes / MaxStepBytes - 1) / 2

  /** A forest's sum adds this many trees per method. */
  private val TreesPerMethod = MaxMethodBytes / MaxStepBytes

  /** The value as a feature, as `FeaturePipeline.transform` reads it: NULL as 0.0. */
  private def asDouble(t: DataType, isNull: ExprValue, v: ExprValue): String = t match {
    case NullType       => "0.0"
    case BooleanType    => s"$isNull ? 0.0 : ($v ? 1.0 : 0.0)"
    case _: DecimalType => s"$isNull ? 0.0 : $v.toDouble()"
    case _: StringType  => s"$isNull ? 0.0 : Double.parseDouble($v.toString())"
    case _              => s"$isNull ? 0.0 : (double) $v"
  }

  /** The value as a category, as `FeaturePipeline.transform` reads it: its
    * `String.valueOf`, a DECIMAL's of its double, and NULL as no category.
    */
  private def asKey(t: DataType, isNull: ExprValue, v: ExprValue): String = t match {
    case NullType       => "null"
    case _: StringType  => s"$isNull ? null : $v"
    case _: DecimalType => s"$isNull ? null : UTF8String.fromString(String.valueOf($v.toDouble()))"
    case _              => s"$isNull ? null : UTF8String.fromString(String.valueOf($v))"
  }

  private def categoryIndex(categories: IndexedSeq[String]): java.util.HashMap[UTF8String, Integer] = {
    val index = new java.util.HashMap[UTF8String, Integer]()
    categories.zipWithIndex.foreach { case (c, k) => index.put(UTF8String.fromString(c), k) }
    index
  }
}
