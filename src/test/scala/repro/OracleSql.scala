package repro

import org.apache.spark.sql.catalyst.analysis.{UnresolvedAttribute, UnresolvedRelation, UnresolvedStar}
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.plans.{Inner, UsingJoin}
import org.apache.spark.sql.catalyst.plans.logical.{Filter, Join, LogicalPlan, Project}
import org.apache.spark.sql.types.{NumericType, StringType}
import org.apache.spark.unsafe.types.UTF8String
import repro.ml._
import repro.sparkext.PredictExpression

/** The analyzers' plans as engine-portable SQL, the reference the DuckDB
  * [[Oracle]] runs: each tree or forest predict renders as the original
  * model's CASE expression, so the reference knows nothing of Raven's
  * rewrites.
  */
object OracleSql {

  /** `plan` as SQL, if every operator and predict in it has a portable form. */
  def toSql(plan: LogicalPlan): Option[String] = {
    def all(es: Seq[Expression]): Option[Seq[String]] =
      es.foldRight(Option(List.empty[String]))((e, acc) => for (s <- expr(e); rest <- acc) yield s :: rest)
    def bin(op: String, l: Expression, r: Expression) = for (ls <- expr(l); rs <- expr(r)) yield s"($ls $op $rs)"
    def expr(e: Expression): Option[String] = e match {
      case UnresolvedStar(None)               => Some("*")
      case a: UnresolvedAttribute             => Some(a.name)
      case Alias(c, name)                     => expr(c).map(s => s"$s AS $name")
      case Literal(s: UTF8String, StringType) => Some(s"'${s.toString.replace("'", "''")}'")
      case Literal(v, _: NumericType)         => Some(v.toString)
      case Not(EqualTo(l, r))                 => bin("<>", l, r)
      case c: BinaryComparison                => bin(c.symbol, c.left, c.right)
      case And(l, r)                          => bin("AND", l, r)
      case p: PredictExpression               => caseSql(p.pipeline).map(s => s"($s)")
      case _                                  => None
    }
    def rel(p: LogicalPlan): Option[String] = p match {
      case UnresolvedRelation(Seq(t), _, _) => Some(s"SELECT * FROM $t")
      case Filter(c, child) => for (sub <- rel(child); cond <- expr(c)) yield s"SELECT * FROM ($sub) AS f_ WHERE $cond"
      case Project(list, child) =>
        for (sub <- rel(child); items <- all(list)) yield s"SELECT ${items.mkString(", ")} FROM ($sub) AS p_"
      case Join(l, r, UsingJoin(Inner, Seq(k)), None, _) =>
        for (ls <- rel(l); rs <- rel(r)) yield s"SELECT * FROM ($ls) AS la_ JOIN ($rs) AS ra_ USING ($k)"
      case _ => None
    }
    rel(plan)
  }

  /** A scaler-free tree or forest pipeline as one CASE expression over its raw columns. */
  def caseSql(mp: ModelPipeline): Option[String] = {
    lazy val feats = featureSqlExprs(mp.pipeline)
    mp.model match {
      case t: DecisionTreeModel if mp.scaler.isEmpty => Some(toCaseSql(t, feats))
      case f: RandomForestModel if mp.scaler.isEmpty =>
        Some(s"((${f.trees.map(t => s"(${toCaseSql(t, feats)})").mkString(" + ")}) / ${f.trees.size})")
      case _ => None
    }
  }

  /** The tree as a nested CASE expression over the given feature expressions. */
  def toCaseSql(tree: DecisionTreeModel, featureExprs: IndexedSeq[String]): String = {
    require(featureExprs.size == tree.numFeatures, s"need ${tree.numFeatures} feature exprs, got ${featureExprs.size}")
    def render(n: TreeNode): String = n match {
      case Leaf(v)           => s"CAST($v AS DOUBLE)"
      case Split(f, t, l, r) => s"(CASE WHEN ${featureExprs(f)} < $t THEN ${render(l)} ELSE ${render(r)} END)"
    }
    render(tree.root)
  }

  /** SQL expression per feature index of `pipeline`: numerics read the
    * column, one-hot features become indicator CASE expressions.
    */
  def featureSqlExprs(pipeline: FeaturePipeline): IndexedSeq[String] =
    (pipeline.numericCols.map(c => s"CAST($c AS DOUBLE)") ++
      pipeline.encoders.flatMap(e => e.categories.map(v =>
        s"(CASE WHEN ${e.inputCol} = '${v.replace("'", "''")}' THEN 1.0 ELSE 0.0 END)"))).toIndexedSeq
}
