package repro.core.ir

import repro.ml.{ModelPipeline, NNPipelineModel}

/** Operator categories of the unified IR (§3.1): relational algebra,
  * linear algebra, other ML operators / data featurizers, and opaque UDFs.
  */
sealed trait OpCategory
object OpCategory {
  case object RA  extends OpCategory
  case object LA  extends OpCategory
  case object MLD extends OpCategory
  case object UDF extends OpCategory
}

/** Scalar expressions used in IR predicates and projections. */
sealed trait ScalarExpr {
  /** Render as SQL understood by both Spark SQL and DuckDB. */
  def toSql: String = this match {
    case ColRef(n)       => n
    case NumLit(v)       => if (v == v.floor && math.abs(v) < 1e15) v.toLong.toString else v.toString
    case StrLit(s)       => s"'${s.replace("'", "''")}'"
    case Cmp(op, l, r)   => s"(${l.toSql} $op ${r.toSql})"
    case And(l, r)       => s"(${l.toSql} AND ${r.toSql})"
  }
}
final case class ColRef(name: String) extends ScalarExpr
final case class NumLit(value: Double) extends ScalarExpr
final case class StrLit(value: String) extends ScalarExpr
/** op ∈ { =, <>, <, <=, >, >= } */
final case class Cmp(op: String, left: ScalarExpr, right: ScalarExpr) extends ScalarExpr
final case class And(left: ScalarExpr, right: ScalarExpr) extends ScalarExpr

object ScalarExpr {

  def conjunction(es: Seq[ScalarExpr]): Option[ScalarExpr] = es.reduceOption(And(_, _))
}

/** A named output column of a projection. */
final case class NamedExpr(name: String, expr: ScalarExpr)

/** Table metadata the optimizer may rely on: declared primary keys and
  * foreign keys with enforced integrity (what licenses join elimination).
  */
final case class TableDef(name: String, columns: Seq[String], primaryKey: Option[String] = None)

final case class ForeignKey(fromTable: String, fromCol: String, toTable: String, toCol: String)

/** Catalog of tables and integrity constraints: the analyzer reads its
  * columns, and Catalyst's join elimination trusts its keys once declared
  * with [[repro.sparkext.RavenRules.RavenIntegrity]].
  */
class SchemaCatalog extends Serializable {
  private val tables = scala.collection.mutable.LinkedHashMap[String, TableDef]()
  private val fks = scala.collection.mutable.ArrayBuffer[ForeignKey]()

  def register(t: TableDef): this.type = { tables(t.name) = t; this }
  def registerFk(fk: ForeignKey): this.type = { fks += fk; this }

  def table(name: String): TableDef =
    tables.getOrElse(name, throw new IllegalArgumentException(s"unknown table '$name'"))
  def contains(name: String): Boolean = tables.contains(name)
  def tableNames: Seq[String] = tables.keys.toSeq

  /** Is `from.fromCol -> to.toCol` a declared FK onto a primary key (i.e.
    * the join is row-preserving for the `from` side)?
    */
  def isRowPreserving(fromTable: String, fromCol: String, toTable: String, toCol: String): Boolean =
    tables.get(toTable).exists(_.primaryKey.contains(toCol)) &&
      fks.exists(fk => fk.fromTable == fromTable && fk.fromCol == fromCol &&
        fk.toTable == toTable && fk.toCol == toCol)
}

/** The unified IR (§3): a DAG of relational, ML, and UDF operators. Each
  * node reports its output columns; the cross-optimizer rewrites nodes,
  * the runtime code generator lowers them to Spark.
  */
sealed trait IRNode {
  def category: OpCategory
  def children: Seq[IRNode]
  def outputCols: Seq[String]

  def treeString: String = {
    val sb = new StringBuilder
    def walk(n: IRNode, indent: Int): Unit = {
      sb.append("  " * indent).append(n.describe).append('\n')
      n.children.foreach(walk(_, indent + 1))
    }
    walk(this, 0)
    sb.toString
  }

  def describe: String = this match {
    case IRScan(t, cols)                 => s"Scan($t, [${cols.mkString(",")}])"
    case IRFilter(p, _)                  => s"Filter(${p.toSql})"
    case IRProject(cols, _)              => s"Project(${cols.map(c => s"${c.expr.toSql} AS ${c.name}").mkString(", ")})"
    case IRJoin(_, _, lk, rk)            => s"Join($lk = $rk)"
    case IRPredict(out, mp, _)           => s"Predict[MLD](${mp.id} -> $out)"
    case IRNNPredict(out, nn, _)         => s"NNPredict[LA](${nn.graph.name} -> $out)"
    case IRUdf(name, out, _, _, _)       => s"Udf($name -> $out)"
  }

  /** All nodes in this subtree, preorder. */
  def collectNodes: Seq[IRNode] = this +: children.flatMap(_.collectNodes)

  /** Bottom-up rewrite: `f` sees each node after its children are rewritten. */
  def transformUp(f: PartialFunction[IRNode, IRNode]): IRNode = {
    val withNewChildren = this match {
      case s: IRScan      => s
      case n: IRFilter    => n.copy(child = n.child.transformUp(f))
      case n: IRProject   => n.copy(child = n.child.transformUp(f))
      case n: IRJoin      => n.copy(left = n.left.transformUp(f), right = n.right.transformUp(f))
      case n: IRPredict   => n.copy(child = n.child.transformUp(f))
      case n: IRNNPredict => n.copy(child = n.child.transformUp(f))
      case n: IRUdf       => n.copy(child = n.child.transformUp(f))
    }
    f.applyOrElse(withNewChildren, identity[IRNode])
  }
}

final case class IRScan(table: String, columns: Seq[String]) extends IRNode {
  def category: OpCategory = OpCategory.RA
  def children: Seq[IRNode] = Nil
  def outputCols: Seq[String] = columns
}

final case class IRFilter(pred: ScalarExpr, child: IRNode) extends IRNode {
  def category: OpCategory = OpCategory.RA
  def children: Seq[IRNode] = Seq(child)
  def outputCols: Seq[String] = child.outputCols
}

final case class IRProject(cols: Seq[NamedExpr], child: IRNode) extends IRNode {
  def category: OpCategory = OpCategory.RA
  def children: Seq[IRNode] = Seq(child)
  def outputCols: Seq[String] = cols.map(_.name)
}

/** Inner equi-join; output = left columns ++ right columns minus the
  * (duplicate) right key.
  */
final case class IRJoin(left: IRNode, right: IRNode, leftKey: String, rightKey: String) extends IRNode {
  def category: OpCategory = OpCategory.RA
  def children: Seq[IRNode] = Seq(left, right)
  def outputCols: Seq[String] =
    left.outputCols ++ right.outputCols.filterNot(c => c == rightKey && left.outputCols.contains(leftKey))
}

/** Invocation of a deployed model pipeline (MLD operator): consumes the
  * pipeline's raw input columns from the child, appends `outputCol`.
  */
final case class IRPredict(outputCol: String, pipeline: ModelPipeline, child: IRNode) extends IRNode {
  def category: OpCategory = OpCategory.MLD
  def children: Seq[IRNode] = Seq(child)
  def outputCols: Seq[String] = child.outputCols :+ outputCol
}

/** An NN-translated pipeline (LA operator) executed by the OnnxLite runtime. */
final case class IRNNPredict(outputCol: String, nn: NNPipelineModel, child: IRNode) extends IRNode {
  def category: OpCategory = OpCategory.LA
  def children: Seq[IRNode] = Seq(child)
  def outputCols: Seq[String] = child.outputCols :+ outputCol
}

/** Opaque user code the static analyzer could not translate (§3.1, §3.2):
  * a black-box row function appending one column.
  */
final case class IRUdf(
    name: String,
    outputCol: String,
    inputCols: Seq[String],
    fn: IndexedSeq[Any] => Any,
    child: IRNode,
) extends IRNode {
  def category: OpCategory = OpCategory.UDF
  def children: Seq[IRNode] = Seq(child)
  def outputCols: Seq[String] = child.outputCols :+ outputCol
}
