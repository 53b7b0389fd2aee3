package repro.sparkext

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Expression, Literal}
import org.apache.spark.sql.catalyst.expressions.codegen._
import org.apache.spark.sql.catalyst.expressions.codegen.Block._
import org.apache.spark.sql.types.{DataType, DoubleType}
import repro.ml.{DecisionTreeModel, Leaf, Split, TreeNode}

/** An inlined tree model (§4.2), the output of [[RavenRules.ModelInlining]]:
  * the trees of deployed variant `variantId`, scored inside the generated
  * code of the stage that reads their features.
  *
  * `children` are the features the trees read, as double-valued
  * expressions over the predict's input columns; the trees' split indices
  * refer to positions in `children`. A NULL feature reads as 0.0, the
  * featurization of [[repro.ml.FeaturePipeline]]. The result is a single
  * tree's value, or the tree values of a forest summed left to right and
  * divided by the tree count.
  *
  * Generated code evaluates each feature once per row into a `double[]`
  * and scores each tree in a method of its own, so that no method comes
  * near the JVM's 8 000-byte limit for JIT compilation.
  */
final case class InlinedTrees(
    variantId: String,
    trees: IndexedSeq[DecisionTreeModel],
    children: Seq[Expression],
) extends Expression {
  override def dataType: DataType = DoubleType
  override def nullable: Boolean = false
  override def prettyName: String = "raven_inlined"
  override def toString: String = s"$prettyName($variantId, ${trees.size} trees, ${trees.map(_.nodeCount).sum} nodes)"

  override def eval(input: InternalRow): Any = {
    val x = new Array[Double](children.size)
    var i = 0
    while (i < x.length) {
      val v = children(i).eval(input)
      if (v != null) x(i) = v.asInstanceOf[Double]
      i += 1
    }
    var s = trees(0).predict(x)
    i = 1
    while (i < trees.size) { s += trees(i).predict(x); i += 1 }
    if (trees.size == 1) s else s / trees.size
  }

  override protected def doGenCode(ctx: CodegenContext, ev: ExprCode): ExprCode = {
    val x = ctx.addMutableState("double[]", "ravenX", v => s"$v = new double[${children.size}];", forceInline = true)
    val features = children.zipWithIndex.map { case (c, i) =>
      val e = c.genCode(ctx)
      code"""${e.code}
            |$x[$i] = ${e.isNull} ? 0.0 : ${e.value};""".stripMargin
    }
    val sum = trees.map { t =>
      val fn = ctx.freshName("ravenTree")
      ctx.addNewFunction(fn, s"private double $fn(double[] x) {\n${treeCode(t.root, ctx)}\n}") + s"($x)"
    }.mkString(" + ")
    val score = if (trees.size == 1) sum else s"($sum) / ${trees.size}.0"
    ev.copy(isNull = FalseLiteral, code =
      code"""${features.foldLeft[Block](EmptyBlock)(_ + _)}
            |double ${ev.value} = $score;""".stripMargin)
  }

  /** Nested `if`s over `x`; each threshold and leaf is a Java literal of its exact value. */
  private def treeCode(n: TreeNode, ctx: CodegenContext): String = n match {
    case Leaf(v) => s"return ${Literal(v).genCode(ctx).value};"
    case Split(f, t, l, r) =>
      s"if (x[$f] < ${Literal(t).genCode(ctx).value}) {\n${treeCode(l, ctx)}\n} else {\n${treeCode(r, ctx)}\n}"
  }

  override protected def withNewChildrenInternal(newChildren: IndexedSeq[Expression]): Expression =
    copy(children = newChildren)
}
