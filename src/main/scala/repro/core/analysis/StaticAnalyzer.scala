package repro.core.analysis

import org.apache.spark.sql.catalyst.{expressions => cat}
import org.apache.spark.sql.catalyst.analysis.{UnresolvedAlias, UnresolvedAttribute, UnresolvedFunction, UnresolvedRelation, UnresolvedStar}
import org.apache.spark.sql.catalyst.parser.{CatalystSqlParser, ParseException}
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.{Filter, Join, LogicalPlan, Project}
import org.apache.spark.sql.types.{NumericType, StringType}
import org.apache.spark.unsafe.types.UTF8String
import repro.core.ir.SchemaCatalog
import repro.ml.ModelPipeline

/** Raven's Static Analyzer (§3.2): turns an inference query — SQL and/or
  * an imperative pipeline script — into the unified IR, Spark's logical
  * plan with Raven's [[repro.sparkext.PredictExpression]] in it.
  */
object StaticAnalyzer extends cat.PredicateHelper {

  /** `ir` is unresolved, and carries the pipeline it predicts with: [[repro.sparkext.Raven.run]] runs it. */
  final case class SqlAnalysis(ir: LogicalPlan, elapsedMicros: Long)

  /** Column name used for the model score when PREDICT appears only in the
    * WHERE clause.
    */
  val ScoreCol = "score"

  /** Analyze an inference SQL query into a plan.
    *
    * Spark's parser reads the query. The analyzer accepts the Fig. 1 shape
    * of its unresolved plan: a projection of columns, literals, `*` and
    * `PREDICT(model_id)` (the model's pipeline names the features), over an
    * optional conjunction of comparisons of columns and literals or
    * `PREDICT(model_id) op number`, over a left-deep chain of inner joins of
    * single-part table names, each on one `a = b`. Qualifiers are dropped;
    * anything else throws an `IllegalArgumentException` naming the construct.
    *
    * Relational WHERE conjuncts go below the model invocation, a
    * [[repro.sparkext.PredictExpression]] column, and score predicates above
    * it, then the select list is projected: the canonical pre-optimization
    * shape of Fig. 1. A join on keys of one name is a USING join, which
    * keeps one key column.
    */
  def analyzeSql(
      sql: String,
      catalog: SchemaCatalog,
      modelStore: String => ModelPipeline,
  ): SqlAnalysis = {
    val t0 = System.nanoTime()
    val parsed =
      try CatalystSqlParser.parsePlan(sql)
      catch { case e: ParseException => throw new IllegalArgumentException(e.getMessage, e) }
    val (selectList, where, from) = parsed match {
      case Project(list, Filter(cond, child)) => (list, splitConjunctivePredicates(cond), child)
      case Project(list, child)               => (list, Nil, child)
      case other                              => unsupported("query", other.simpleString(5))
    }

    // FROM + JOIN chain
    def scan(p: LogicalPlan): Frame = p match {
      case UnresolvedRelation(Seq(t), _, _) => Frame.scan(t, catalog)
      case other                            => unsupported("FROM item", other.simpleString(5))
    }
    def joins(p: LogicalPlan): Frame = p match {
      case Join(l, r, Inner, Some(cat.EqualTo(a: UnresolvedAttribute, b: UnresolvedAttribute)), _) =>
        val (left, right) = (joins(l), scan(r))
        val (lk, rk) =
          if (left.cols.contains(a.nameParts.last)) (a.nameParts.last, b.nameParts.last)
          else (b.nameParts.last, a.nameParts.last) // ON b.k = a.k order-insensitivity
        require(left.cols.contains(lk), s"join key '$lk' not found on left side")
        require(right.cols.contains(rk), s"join key '$rk' not found in ${r.asInstanceOf[UnresolvedRelation].tableName}")
        left.join(right, lk, rk)
      case j: Join => unsupported("join", s"${j.joinType} join on ${j.condition.getOrElse("nothing")}")
      case other   => scan(other)
    }
    var frame = joins(from)

    // Relational predicates below the model, score predicates above.
    val (predictsInWhere, plainPreds) = where.partitionMap { e =>
      comparison(e) match {
        case (op, Predict(id), r) => r match {
          case cat.Literal(_, _: NumericType) => Left(id -> e)
          case _ => unsupported("score predicate", s"PREDICT($id) $op $r (PREDICT compares with a number)")
        }
        case (_, l, r) => operand(l); operand(r); Right(unqualified(e))
      }
    }
    plainPreds.reduceOption(cat.And).foreach(p => frame = frame.where(p))

    val select = selectList.map {
      case cat.Alias(e, name)    => (e, Some(name))
      case UnresolvedAlias(e, _) => (e, None)
      case e                     => (e, None)
    }
    val predictsInSelect = select.collect { case (Predict(id), alias) => (id, alias) }
    val modelIds = (predictsInWhere.map(_._1) ++ predictsInSelect.map(_._1)).distinct
    require(modelIds.size <= 1, s"at most one model per inference query is supported, got $modelIds")

    val scoreCol = Frame.col(predictsInSelect.headOption.flatMap(_._2).getOrElse(ScoreCol))
    modelIds.headOption.foreach { id =>
      val mp = modelStore(id)
      val missing = mp.inputCols.filterNot(frame.cols.contains)
      require(missing.isEmpty, s"model '$id' needs missing columns: ${missing.mkString(",")}")
      frame = frame.predict(mp, scoreCol.name)
      predictsInWhere.map(_._2.transform { case Predict(_) => scoreCol }).reduceOption(cat.And)
        .foreach(p => frame = frame.where(p))
    }

    // SELECT list
    val plan =
      if (select.exists(_._1 == UnresolvedStar(None))) frame.plan
      else Project(select.map {
        case (Predict(_), alias) => named(scoreCol, alias.getOrElse(ScoreCol))
        case (e, alias) => operand(e) match {
          case a: UnresolvedAttribute => named(a, alias.getOrElse(a.name))
          case lit => named(lit, alias.getOrElse(throw new IllegalArgumentException(s"alias required for ${lit.sql}")))
        }
      }, frame.plan)
    SqlAnalysis(plan, (System.nanoTime() - t0) / 1000)
  }

  private def unsupported(what: String, found: String): Nothing =
    throw new IllegalArgumentException(s"unsupported $what in an inference query: $found")

  private def named(e: cat.Expression, name: String): cat.NamedExpression = e match {
    case a: UnresolvedAttribute if a.name == name => a
    case _                                        => cat.Alias(e, name)()
  }

  private def unqualified(e: cat.Expression): cat.Expression =
    e.transform { case a: UnresolvedAttribute => Frame.col(a.nameParts.last) }

  /** `l op r`; Spark parses `<>` as `NOT (l = r)`. */
  private def comparison(e: cat.Expression): (String, cat.Expression, cat.Expression) = e match {
    case cat.EqualTo(l, r)            => ("=", l, r)
    case cat.Not(cat.EqualTo(l, r))   => ("<>", l, r)
    case cat.LessThan(l, r)           => ("<", l, r)
    case cat.LessThanOrEqual(l, r)    => ("<=", l, r)
    case cat.GreaterThan(l, r)        => (">", l, r)
    case cat.GreaterThanOrEqual(l, r) => (">=", l, r)
    case other                        => unsupported("WHERE conjunct", s"${other.nodeName} $other")
  }

  /** A column, qualifier dropped, or a number or string literal. */
  private def operand(e: cat.Expression): cat.Expression = e match {
    case a: UnresolvedAttribute                          => Frame.col(a.nameParts.last)
    case l @ (cat.Literal(_, _: NumericType) | cat.Literal(_: UTF8String, StringType)) => l
    case other                                           => unsupported("operand", s"${other.nodeName} $other")
  }

  /** `PREDICT(id)` in any case, `id` an identifier or a string literal. */
  private object Predict {
    def unapply(e: cat.Expression): Option[String] = e match {
      case f: UnresolvedFunction if f.nameParts.size == 1 && f.nameParts.head.equalsIgnoreCase("predict") =>
        f.arguments match {
          case Seq(UnresolvedAttribute(Seq(id)))           => Some(id)
          case Seq(cat.Literal(s: UTF8String, StringType)) => Some(s.toString)
          case args => unsupported("PREDICT argument", s"${args.mkString(", ")} (one model id expected)")
        }
      case _ => None
    }
  }
}
