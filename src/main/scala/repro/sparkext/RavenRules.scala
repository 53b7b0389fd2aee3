package repro.sparkext

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical._
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String
import repro.core.ir.SchemaCatalog
import repro.ml._

/** Raven's model rewrites as Catalyst optimizer rules, injected via
  * `spark.experimental.extraOptimizations`. They are the only code that
  * rewrites a model: they fire on any plan containing [[PredictExpression]],
  * from SQL, from a DataFrame, or from Raven's static analyzers, whose IR
  * is the Catalyst plan itself.
  */
object RavenRules {

  /** Predicate-based model pruning and model-projection pushdown (§4.1):
    * every predict is replaced by its pipeline's variant specialized for the
    * facts known of its inputs ([[PredictExpression.specializedFor]]), or
    * left as it is if it learns no new fact, so the fixed-point batch
    * converges. Catalyst
    * column pruning then narrows the scans, and [[JoinElimination]] may
    * drop joins.
    *
    * The facts are Catalyst's own `constraints`: those of the node's
    * children, and in a Filter also the filter's conjuncts, because rows
    * failing a conjunct never reach the query output (the Fig. 1
    * `pregnant = 1 AND score > 7` case). Spark keeps only the preserved
    * side's facts across an outer join and only the facts common to every
    * branch of a union, and carries facts through aliases. With constraint
    * propagation switched off there are no facts, and predicts are only
    * projected.
    */
  object ModelSpecialization extends Rule[LogicalPlan] {

    def apply(plan: LogicalPlan): LogicalPlan = plan.transformUp { case node =>
      lazy val facts = node match {
        case f: Filter => f.constraints.toSeq
        case _         => node.children.flatMap(_.constraints)
      }
      node.transformExpressionsUp { case p: PredictExpression =>
        p.specializedFor(p.children.zip(p.pipeline.inputCols).flatMap {
          // a constant that Spark's ConstantPropagation folded into the argument
          case (LitNum(v), col)                          => Seq(NumRange(col, FeatureConstraint.equalTo(v)))
          case (Literal(s: UTF8String, StringType), col) => Seq(CatEquals(col, s.toString))
          case (Attr(a), col)                            => facts.flatMap(predicate(a, col))
          case _                                         => Nil
        })
      }
    }

    /** `fact` as a predicate on model column `col`, if it compares `a` with a
      * literal. A category needs `a` itself: a string cast of a number need
      * not read as the model reads the number.
      */
    private def predicate(a: Attribute, col: String)(fact: Expression): Option[ColPredicate] = {
      def isA(e: Expression) = Attr.unapply(e).exists(_.exprId == a.exprId)
      def bare(e: Expression) = e match { case b: Attribute => b.exprId == a.exprId; case _ => false }
      fact match {
        case EqualTo(x, Literal(s: UTF8String, StringType)) if bare(x) => Some(CatEquals(col, s.toString))
        case EqualTo(Literal(s: UTF8String, StringType), x) if bare(x) => Some(CatEquals(col, s.toString))
        case c @ BinaryComparison(x, LitNum(v)) if isA(x) => bound(c, v, attrLeft = true, staysStrict(a.dataType)).map(NumRange(col, _))
        case c @ BinaryComparison(LitNum(v), x) if isA(x) => bound(c, v, attrLeft = false, staysStrict(a.dataType)).map(NumRange(col, _))
        case _                                            => None
      }
    }

    /** The bound `c` implies on the model's double; strict only if `strict`,
      * as converting to double is monotone but may round.
      */
    private def bound(c: BinaryComparison, v: Double, attrLeft: Boolean, strict: Boolean): Option[FeatureConstraint] = {
      import FeatureConstraint._
      val (below, above) = if (strict) (lessThan(v), greaterThan(v)) else (atMost(v), atLeast(v))
      c match {
        case _: EqualTo            => Some(equalTo(v))
        case _: GreaterThan        => Some(if (attrLeft) above else below)
        case _: GreaterThanOrEqual => Some(if (attrLeft) atLeast(v) else atMost(v))
        case _: LessThan           => Some(if (attrLeft) below else above)
        case _: LessThanOrEqual    => Some(if (attrLeft) atMost(v) else atLeast(v))
        case _                     => None
      }
    }

    /** A strict comparison on `t` stays strict on the doubles: no two values
      * of `t` convert to one double. A BIGINT above 2^53 or a DECIMAL of over
      * 15 digits may: `l < 2^53 + 4` holds of 2^53 + 3, read as 2^53 + 4.
      */
    private def staysStrict(t: DataType): Boolean = t match {
      case ByteType | ShortType | IntegerType | FloatType | DoubleType => true
      case d: DecimalType => d.precision <= 15
      case _ => false
    }

    /** The attribute `e` reads, bare or under a cast that keeps its every
      * value: an up-cast to any type but FLOAT, which rounds an integer
      * above 2^24. A narrowing cast such as `CAST(bp AS INT)` hides it.
      */
    private object Attr {
      def unapply(e: Expression): Option[Attribute] = e match {
        case a: Attribute                                                          => Some(a)
        case Cast(a: Attribute, to, _, _) if Cast.canUpCast(a.dataType, to) && to != FloatType => Some(a)
        case _                                                                     => None
      }
    }

    /** A non-NULL numeric literal, as the double the model reads. */
    private object LitNum {
      def unapply(e: Expression): Option[Double] = e match {
        case l @ Literal(v, _: NumericType) if v != null => Some(Cast(l, DoubleType).eval().asInstanceOf[Double])
        case _                                           => None
      }
    }
  }

  /** Model inlining (§4.2): a decision tree or forest without a scaler, of
    * any size, becomes an [[InlinedTrees]] expression over the arguments of
    * the columns its trees read, which whole-stage codegen compiles with the
    * rest of the stage, removing the model-runtime boundary entirely. A
    * column no split reads stays prunable from the scan.
    */
  object ModelInlining extends Rule[LogicalPlan] {
    def apply(plan: LogicalPlan): LogicalPlan = plan.transformAllExpressions {
      case p @ PredictExpression(mp, _, _) => mp.model match {
        case _: DecisionTreeModel | _: RandomForestModel if mp.scaler.isEmpty =>
          val (pipeline, model, _) = ModelPruner.projectPipeline(mp.pipeline, mp.model)
          InlinedTrees(mp.copy(pipeline = pipeline, model = model),
            pipeline.inputCols.map(c => p.children(mp.inputCols.indexOf(c))))
        case _ => p
      }
    }
  }

  /** Join elimination licensed by the declared [[SchemaCatalog]] (§4.1). An
    * inner equi-join `lk = rk` under a projection that reads nothing of its
    * right side is replaced by its left side when every left row matches
    * exactly one right row:
    *  - each side's key column belongs to a base relation that is the plan
    *    of exactly one declared table, and the catalog declares a foreign
    *    key from the left one onto the right one's primary key;
    *  - the right side is that relation under attribute-only projections
    *    and filters whose every conjunct is deterministic, reads only `rk`
    *    and holds of `lk` on the left side (Spark's inferred `isnotnull`
    *    and key ranges);
    *  - `lk` is never NULL on the left side, so no left row relied on the
    *    join to drop it.
    * The catalog is the one declared for the session running the query,
    * the active session while its optimizer runs, and its tables are looked
    * up by name in that session.
    */
  object JoinElimination extends Rule[LogicalPlan] with PredicateHelper {
    def apply(plan: LogicalPlan): LogicalPlan = (for {
      spark   <- SparkSession.getActiveSession
      catalog <- RavenIntegrity.declared(spark)
    } yield eliminate(plan, spark, catalog)).getOrElse(plan)

    private def eliminate(plan: LogicalPlan, spark: SparkSession, catalog: SchemaCatalog): LogicalPlan = {
      lazy val tables = declaredRelations(spark, catalog)
      plan.transformUp {
        case p @ Project(list, Join(l, r, Inner, Some(EqualTo(x: Attribute, y: Attribute)), _))
            if AttributeSet(list.flatMap(_.references)).intersect(r.outputSet).isEmpty &&
              Seq((x, y), (y, x)).exists { case (lk, rk) =>
                l.outputSet.contains(lk) && r.outputSet.contains(rk) && rowPreserving(l, lk, r, rk, catalog, tables)
              } => p.copy(child = l)
      }
    }

    private def rowPreserving(
        l: LogicalPlan, lk: Attribute, r: LogicalPlan, rk: Attribute,
        catalog: SchemaCatalog, tables: => Seq[(String, LogicalPlan)]): Boolean = {
      def column(leaf: LeafNode, key: Attribute): Option[(String, String)] = {
        val named = tables.collect { case (t, plan) if leaf.sameResult(plan) => t }
        if (named.size == 1) leaf.output.find(_.exprId == key.exprId).map(a => named.head -> a.name) else None
      }
      def implied(c: Expression): Boolean = c.deterministic && c.references.subsetOf(AttributeSet(rk)) &&
        l.constraints.contains(c.transform { case a: Attribute if a.exprId == rk.exprId => lk })
      (!lk.nullable || l.constraints.contains(IsNotNull(lk))) && (for {
        (rLeaf, rConds) <- baseRelation(r) if rConds.forall(implied)
        (rt, rc)        <- column(rLeaf, rk)
        (lt, lc)        <- sourceOf(l, lk).flatMap(column(_, lk))
      } yield catalog.isRowPreserving(lt, lc, rt, rc)).getOrElse(false)
    }

    /** The leaf under attribute-only projections and filters, with the filters' conjuncts. */
    private def baseRelation(plan: LogicalPlan): Option[(LeafNode, Seq[Expression])] = plan match {
      case leaf: LeafNode => Some((leaf, Nil))
      case Project(list, child) if list.forall(_.isInstanceOf[Attribute]) => baseRelation(child)
      case Filter(cond, child) => baseRelation(child).map { case (leaf, cs) => (leaf, splitConjunctivePredicates(cond) ++ cs) }
      case _ => None
    }

    /** The leaf whose column `a` is, unchanged, through projections, filters and inner joins. */
    private def sourceOf(plan: LogicalPlan, a: Attribute): Option[LeafNode] = plan match {
      case leaf: LeafNode if leaf.outputSet.contains(a) => Some(leaf)
      case Project(list, child) if list.exists { case b: Attribute => b.exprId == a.exprId; case _ => false } =>
        sourceOf(child, a)
      case Filter(_, child) => sourceOf(child, a)
      case Join(jl, jr, Inner, _, _) => sourceOf(if (jl.outputSet.contains(a)) jl else jr, a)
      case _ => None
    }

    /** Each declared table `spark` knows, with its analyzed plan. */
    private def declaredRelations(spark: SparkSession, catalog: SchemaCatalog): Seq[(String, LogicalPlan)] =
      catalog.tableNames.filter(spark.catalog.tableExists).map(t => t -> spark.table(t).queryExecution.analyzed)
  }

  /** The integrity catalog [[JoinElimination]] trusts in a session: the
    * keys it declares hold in the data of the tables it names there. Temp
    * views are per session, so a declaration is too. `declare` replaces the
    * catalog declared before for that session.
    */
  object RavenIntegrity {
    private val catalogs = java.util.Collections.synchronizedMap(new java.util.WeakHashMap[SparkSession, SchemaCatalog]())
    def declare(spark: SparkSession, catalog: SchemaCatalog): Unit = catalogs.put(spark, catalog)
    def clear(spark: SparkSession): Unit = catalogs.remove(spark)
    private[sparkext] def declared(spark: SparkSession): Option[SchemaCatalog] = Option(catalogs.get(spark))

    private lazy val columnNameWarning: Unit = Console.err.println(
      "RavenIntegrity.declareRowPreserving: a column-name pair licenses no join elimination; " +
        "declare a SchemaCatalog with RavenIntegrity.declare")

    @deprecated("declare a SchemaCatalog with RavenIntegrity.declare; a column-name pair licenses nothing", "0.6")
    def declareRowPreserving(leftKey: String, rightKey: String): Unit = columnNameWarning
  }
}
