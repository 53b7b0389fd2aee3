package repro.core.analysis

import org.apache.spark.sql.catalyst.analysis.{UnresolvedAttribute, UnresolvedRelation, UnresolvedStar}
import org.apache.spark.sql.catalyst.expressions.{Alias, EqualTo, Expression}
import org.apache.spark.sql.catalyst.plans.{Inner, UsingJoin}
import org.apache.spark.sql.catalyst.plans.logical.{Filter, Join, JoinHint, LogicalPlan, Project}
import repro.core.ir.SchemaCatalog
import repro.ml.ModelPipeline
import repro.sparkext.PredictExpression

/** A frame the analyzers build: its unresolved Catalyst plan, and the
  * columns the catalog says it has (what the analyzers check names against,
  * with no session).
  */
private[analysis] final case class Frame(plan: LogicalPlan, cols: Seq[String]) {
  import Frame.col

  def where(cond: Expression): Frame = copy(plan = Filter(cond, plan))

  def select(names: Seq[String]): Frame = copy(plan = Project(names.map(col), plan), cols = names)

  /** Inner equi-join `lk = rk` without the right key: a USING join when the keys share a name. */
  def join(right: Frame, lk: String, rk: String): Frame = {
    val out = cols ++ right.cols.filterNot(_ == rk)
    val joined =
      if (lk == rk) Join(plan, right.plan, UsingJoin(Inner, Seq(lk)), None, JoinHint.NONE)
      else Project(out.map(col), Join(plan, right.plan, Inner, Some(EqualTo(col(lk), col(rk))), JoinHint.NONE))
    Frame(joined, out)
  }

  /** Appends column `name` computed by `e`. */
  def withColumn(name: String, e: Expression): Frame =
    copy(plan = Project(Seq(UnresolvedStar(None), Alias(e, name)()), plan), cols = cols :+ name)

  /** Appends column `name` holding `mp`'s predictions over its input columns. */
  def predict(mp: ModelPipeline, name: String): Frame = withColumn(name, PredictExpression(mp, mp.inputCols.map(col)))
}

private[analysis] object Frame {

  def col(name: String): UnresolvedAttribute = UnresolvedAttribute.quoted(name)

  /** Table `t`, resolved from the session's catalog when the plan runs. */
  def scan(t: String, catalog: SchemaCatalog): Frame = Frame(UnresolvedRelation(Seq(t)), catalog.table(t).columns)
}
