package repro.core.ir

import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import repro.sparkext.{InlinedTrees, PredictExpression}

/** Operator categories of the unified IR (§3.1): relational algebra,
  * linear algebra, other ML operators / data featurizers, and opaque UDFs.
  * The IR is Catalyst's logical plan with Raven's expressions in it; LA
  * operators are the ops of NN-translated graphs, which run outside the
  * plan (`RavenRuntime.predictNNBatch`).
  */
sealed trait OpCategory
object OpCategory {
  case object RA  extends OpCategory
  case object LA  extends OpCategory
  case object MLD extends OpCategory
  case object UDF extends OpCategory

  /** The operators of `plan` by category, preorder: each plan node is
    * relational, and each model invocation in it an MLD operator and each
    * opaque function a UDF.
    */
  def of(plan: LogicalPlan): Seq[OpCategory] = plan.flatMap { node =>
    RA +: node.expressions.flatMap(_.collect {
      case _: PredictExpression | _: InlinedTrees => MLD
      case _: ScalaUDF                            => UDF
    })
  }
}

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
