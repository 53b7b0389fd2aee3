package repro.core.codegen

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, expr}
import repro.core.ir._
import repro.ml.{DecisionTree, DecisionTreeModel, ModelPipeline, RandomForestModel}
import repro.sparkext.{Raven, RavenRuntime}

/** Raven's Runtime Code Generator (§5): lowers an IR plan to the integrated
  * engine — relational operators to Spark SQL, model invocations to the
  * `raven_predict` expression. The Catalyst rules Raven installs on the
  * session ([[repro.sparkext.RavenRules]]) then prune, project and inline
  * the model exactly as they do for a SQL query.
  *
  * [[toSql]] renders a plan as engine-portable SQL, with each tree or forest
  * predict as the original model's CASE expression; the oracle tests run
  * it on DuckDB as the reference answer.
  */
object RuntimeCodeGenerator {

  /** Execute the plan over the given source tables. */
  def toDataFrame(ir: IRNode, tables: Map[String, DataFrame]): DataFrame = ir match {
    case IRScan(t, cols) =>
      val df = tables.getOrElse(t, throw new IllegalArgumentException(s"no DataFrame bound for table '$t'"))
      df.select(cols.map(col): _*)
    case IRFilter(pred, c) =>
      toDataFrame(c, tables).filter(expr(pred.toSql))
    case IRProject(cols, c) =>
      toDataFrame(c, tables).selectExpr(cols.map(ne => s"${ne.expr.toSql} AS ${ne.name}"): _*)
    case IRJoin(l, r, lk, rk) =>
      val lf = toDataFrame(l, tables)
      val rf = toDataFrame(r, tables)
      if (lk == rk) lf.join(rf, Seq(lk))
      else lf.join(rf, lf(lk) === rf(rk)).drop(rf(rk))
    case IRPredict(out, mp, c) =>
      Raven.deploy(mp)
      RavenRuntime.predictBatch(toDataFrame(c, tables), mp.id, out)
    case IRNNPredict(out, nn, c) =>
      RavenRuntime.predictNNBatch(toDataFrame(c, tables), nn, out)
    case IRUdf(_, out, inputCols, fn, c) =>
      RavenRuntime.applyUdf(toDataFrame(c, tables), inputCols, out, fn)
  }

  /** Convenience: resolve scans from the session catalog (temp views). */
  def toDataFrame(ir: IRNode, spark: SparkSession): DataFrame = {
    val tables = ir.collectNodes.collect { case IRScan(t, _) => t -> spark.table(t) }.toMap
    toDataFrame(ir, tables)
  }

  /** Render as portable SQL if every operator has a relational form. */
  def toSql(ir: IRNode): Option[String] = ir match {
    case IRScan(t, cols) =>
      Some(s"SELECT ${cols.mkString(", ")} FROM $t")
    case IRFilter(pred, c) =>
      toSql(c).map(sub => s"SELECT * FROM ($sub) AS f_ WHERE ${pred.toSql}")
    case IRProject(cols, c) =>
      toSql(c).map { sub =>
        val items = cols.map(ne => s"${ne.expr.toSql} AS ${ne.name}")
        s"SELECT ${items.mkString(", ")} FROM ($sub) AS p_"
      }
    case j @ IRJoin(l, r, lk, rk) =>
      for { ls <- toSql(l); rs <- toSql(r) } yield {
        val outCols = j.outputCols.map { c =>
          if (l.outputCols.contains(c)) s"la_.$c" else s"ra_.$c"
        }
        s"SELECT ${outCols.mkString(", ")} FROM ($ls) AS la_ JOIN ($rs) AS ra_ ON la_.$lk = ra_.$rk"
      }
    case IRPredict(out, mp, c) =>
      for { caseSql <- caseSql(mp); sub <- toSql(c) } yield s"SELECT *, ($caseSql) AS $out FROM ($sub) AS i_"
    case _ => None // NNPredict/UDF are not expressible as portable SQL
  }

  /** A scaler-free tree or forest pipeline as one CASE expression over its raw columns. */
  private def caseSql(mp: ModelPipeline): Option[String] = {
    lazy val feats = DecisionTree.featureSqlExprs(mp.pipeline)
    mp.model match {
      case t: DecisionTreeModel if mp.scaler.isEmpty => Some(t.toCaseSql(feats))
      case f: RandomForestModel if mp.scaler.isEmpty => Some(f.toCaseSql(feats))
      case _                                         => None
    }
  }
}
