package repro.sparkext

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
  * rewrites a model: they fire on any DataFrame/SQL plan containing
  * [[PredictExpression]], including IR plans lowered by
  * [[repro.core.codegen.RuntimeCodeGenerator]].
  */
object RavenRules {

  /** A value constraint on an attribute, keyed by `ExprId`. */
  sealed trait AttrConstraint
  final case class NumC(c: FeatureConstraint) extends AttrConstraint
  final case class CatC(value: String) extends AttrConstraint

  type Constraints = Map[ExprId, AttrConstraint]

  /** Predicate-based model pruning and model-projection pushdown (§4.1):
    * every predict is replaced by the registry's variant specialized for the
    * constraints on its inputs, with the arguments the variant no longer
    * reads dropped (projection is specialization under no constraints).
    * Catalyst column pruning then narrows the scans, and
    * [[JoinElimination]] may drop joins.
    *
    * Constraints are collected bottom-up from Filter conditions and joined
    * flow-sensitively: a predict's input rows are constrained by filters
    * below it; and because rows failing a filter above the predict never
    * reach the query output, sibling conjuncts in the *same* Filter also
    * license pruning (the Fig. 1 `pregnant = 1 AND score > 7` case).
    * Outer joins drop the null-padded side's constraints.
    */
  object ModelSpecialization extends Rule[LogicalPlan] with PredicateHelper {

    def apply(plan: LogicalPlan): LogicalPlan = rewrite(plan)._1

    private def rewrite(plan: LogicalPlan): (LogicalPlan, Constraints) = plan match {
      case f @ Filter(cond, child) =>
        val (newChild, cc) = rewrite(child)
        val here = extractConstraints(cond)
        val all = merge(cc, here)
        // conjuncts in this very filter constrain each other's predicts
        val newCond = rewriteExpr(cond, all)
        (f.copy(condition = newCond, child = newChild), all)

      case p @ Project(list, child) =>
        val (newChild, cc) = rewrite(child)
        val newList = list.map(ne => rewriteExpr(ne, cc).asInstanceOf[NamedExpression])
        // propagate constraints through aliases of bare attributes
        val aliased = newList.collect {
          case a @ Alias(ar: AttributeReference, _) if cc.contains(ar.exprId) => a.exprId -> cc(ar.exprId)
        }
        (p.copy(projectList = newList, child = newChild), cc ++ aliased)

      case j @ Join(left, right, joinType, cond, hint) =>
        val (nl, cl) = rewrite(left)
        val (nr, cr) = rewrite(right)
        val childConstraints = joinType match {
          case Inner                                      => merge(cl, cr)
          case org.apache.spark.sql.catalyst.plans.LeftOuter  => cl
          case org.apache.spark.sql.catalyst.plans.RightOuter => cr
          case org.apache.spark.sql.catalyst.plans.LeftSemi   => cl
          case _                                          => Map.empty[ExprId, AttrConstraint]
        }
        val newCond = cond.map(rewriteExpr(_, childConstraints))
        (Join(nl, nr, joinType, newCond, hint), childConstraints)

      case u: Union =>
        // Branch-specific constraints do not hold for the union output.
        val rewritten = u.children.map(c => rewrite(c)._1)
        (u.withNewChildren(rewritten), Map.empty)

      case leaf: LeafNode => (leaf, Map.empty)

      case other =>
        // Generic unary/n-ary node: rewrite children; pass constraints
        // through only for single-child nodes that preserve attribute values.
        val results = other.children.map(rewrite)
        val newPlan = other.withNewChildren(results.map(_._1))
        val cc: Constraints = if (results.size == 1) results.head._2 else Map.empty
        val withExprs = newPlan.mapExpressions(e => rewriteExpr(e, cc))
        (withExprs, cc)
    }

    private def merge(a: Constraints, b: Constraints): Constraints =
      b.foldLeft(a) { case (acc, (id, c)) =>
        acc.get(id) match {
          case Some(NumC(x)) =>
            c match { case NumC(y) => acc + (id -> NumC(x.intersect(y))); case _ => acc }
          case Some(_: CatC) => acc
          case None          => acc + (id -> c)
        }
      }

    /** Rewrite every PredictExpression inside `e` against the constraints. */
    private def rewriteExpr(e: Expression, cc: Constraints): Expression = e.transformUp {
      case p: PredictExpression => specialize(p, cc)
    }

    private[sparkext] def specialize(p: PredictExpression, cc: Constraints): Expression = {
      val mp = ModelRegistry.get(p.modelId)
      val cols = mp.inputCols
      val preds = p.children.zipWithIndex.flatMap { case (child, i) =>
        // constraint via the attribute, or via a constant that Spark's own
        // ConstantPropagation already folded into the argument
        val fromAttr = attrOf(child).flatMap(a => cc.get(a.exprId))
        val fromLit = child match {
          case LitNum(v)                              => Some(NumC(FeatureConstraint.equalTo(v)))
          case Literal(s: UTF8String, StringType)     => Some(CatC(s.toString))
          case _                                      => None
        }
        fromAttr.orElse(fromLit).map {
          case NumC(c)  => NumRange(cols(i), c)
          case CatC(v)  => CatEquals(cols(i), v)
        }
      }
      val derivedId = ModelRegistry.deriveFor(p.modelId, preds)
      if (derivedId == p.modelId) p
      else PredictExpression(derivedId, ModelRegistry.get(derivedId).inputCols.map(c => p.children(cols.indexOf(c))))
    }

    private def attrOf(e: Expression): Option[AttributeReference] = e match {
      case a: AttributeReference                         => Some(a)
      case Cast(a: AttributeReference, dt, _, _) if dt.isInstanceOf[NumericType] => Some(a)
      case _                                             => None
    }

    private[sparkext] def extractConstraints(cond: Expression): Constraints = {
      splitConjunctivePredicates(cond).flatMap {
        case EqualTo(AttrNum(a), LitNum(v))            => Some(a.exprId -> NumC(FeatureConstraint.equalTo(v)))
        case EqualTo(LitNum(v), AttrNum(a))            => Some(a.exprId -> NumC(FeatureConstraint.equalTo(v)))
        case GreaterThan(AttrNum(a), LitNum(v))        => Some(a.exprId -> NumC(FeatureConstraint.greaterThan(v)))
        case GreaterThan(LitNum(v), AttrNum(a))        => Some(a.exprId -> NumC(FeatureConstraint.lessThan(v)))
        case GreaterThanOrEqual(AttrNum(a), LitNum(v)) => Some(a.exprId -> NumC(FeatureConstraint.atLeast(v)))
        case GreaterThanOrEqual(LitNum(v), AttrNum(a)) => Some(a.exprId -> NumC(FeatureConstraint.atMost(v)))
        case LessThan(AttrNum(a), LitNum(v))           => Some(a.exprId -> NumC(FeatureConstraint.lessThan(v)))
        case LessThan(LitNum(v), AttrNum(a))           => Some(a.exprId -> NumC(FeatureConstraint.greaterThan(v)))
        case LessThanOrEqual(AttrNum(a), LitNum(v))    => Some(a.exprId -> NumC(FeatureConstraint.atMost(v)))
        case LessThanOrEqual(LitNum(v), AttrNum(a))    => Some(a.exprId -> NumC(FeatureConstraint.atLeast(v)))
        case EqualTo(a: AttributeReference, Literal(s: UTF8String, StringType)) => Some(a.exprId -> CatC(s.toString))
        case EqualTo(Literal(s: UTF8String, StringType), a: AttributeReference) => Some(a.exprId -> CatC(s.toString))
        case _ => None
      }.foldLeft(Map.empty: Constraints) { case (acc, (id, c)) => merge(acc, Map(id -> c)) }
    }

    private object AttrNum {
      def unapply(e: Expression): Option[AttributeReference] = e match {
        case a: AttributeReference if a.dataType.isInstanceOf[NumericType] || a.dataType == BooleanType => Some(a)
        case Cast(a: AttributeReference, dt, _, _)
            if dt.isInstanceOf[NumericType] && a.dataType.isInstanceOf[NumericType] => Some(a)
        case _ => None
      }
    }

    private object LitNum {
      def unapply(e: Expression): Option[Double] = e match {
        case Literal(v, _: NumericType) => v match {
          case i: Int     => Some(i.toDouble)
          case l: Long    => Some(l.toDouble)
          case d: Double  => Some(d)
          case f: Float   => Some(f.toDouble)
          case s: Short   => Some(s.toDouble)
          case b: Byte    => Some(b.toDouble)
          case d: Decimal => Some(d.toDouble)
          case _          => None
        }
        case _ => None
      }
    }
  }

  /** Model inlining (§4.2): a small decision tree or forest becomes an
    * [[InlinedTrees]] expression over its feature expressions, which
    * whole-stage codegen compiles with the rest of the stage, removing the
    * model-runtime boundary entirely.
    */
  final case class ModelInlining(maxNodes: Int) extends Rule[LogicalPlan] {
    def apply(plan: LogicalPlan): LogicalPlan = plan.transformAllExpressions {
      case p: PredictExpression => maybeInline(p).getOrElse(p)
    }

    private def maybeInline(p: PredictExpression): Option[Expression] = {
      val mp = ModelRegistry.get(p.modelId)
      if (mp.scaler.nonEmpty) return None
      mp.model match {
        case t: DecisionTreeModel if t.nodeCount <= maxNodes => Some(inline(p, mp.pipeline, IndexedSeq(t)))
        case f: RandomForestModel if f.totalNodes <= maxNodes => Some(inline(p, mp.pipeline, f.trees))
        case _ => None
      }
    }

    /** The trees over the features they read, renumbered to those features'
      * positions: a column no split reads stays prunable from the scan.
      */
    private def inline(p: PredictExpression, pipeline: FeaturePipeline, trees: IndexedSeq[DecisionTreeModel])
        : InlinedTrees = {
      val used = trees.flatMap(_.usedFeatures).distinct.sorted
      val slot = used.zipWithIndex.toMap
      def renumber(n: TreeNode): TreeNode = n match {
        case repro.ml.Split(f, t, l, r) => repro.ml.Split(slot(f), t, renumber(l), renumber(r))
        case leaf                       => leaf
      }
      val feats = featureExprs(pipeline, p.children)
      InlinedTrees(p.modelId, trees.map(t => t.copy(root = renumber(t.root), numFeatures = used.size)), used.map(feats))
    }

    /** Catalyst expression per feature index over the predict's children. */
    private def featureExprs(pipeline: FeaturePipeline, children: Seq[Expression]): IndexedSeq[Expression] = {
      val byCol = pipeline.inputCols.zip(children).toMap
      (pipeline.numericCols.map(c => Cast(byCol(c), DoubleType)) ++
        pipeline.encoders.flatMap(e => e.categories.map(v =>
          If(EqualTo(byCol(e.inputCol), Literal(UTF8String.fromString(v), StringType)),
            Literal(1.0), Literal(0.0))))).toIndexedSeq
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
    * Tables are looked up by name in the session running the query.
    */
  object JoinElimination extends Rule[LogicalPlan] with PredicateHelper {
    def apply(plan: LogicalPlan): LogicalPlan = RavenIntegrity.declared match {
      case None => plan
      case Some(catalog) =>
        lazy val tables = declaredRelations(catalog)
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

    /** Each declared table the active session knows, with its analyzed plan. */
    private def declaredRelations(catalog: SchemaCatalog): Seq[(String, LogicalPlan)] = {
      val spark = org.apache.spark.sql.SparkSession.active
      catalog.tableNames.filter(spark.catalog.tableExists).map(t => t -> spark.table(t).queryExecution.analyzed)
    }
  }

  /** The integrity catalog [[JoinElimination]] trusts: the keys it declares
    * hold in the data of the tables it names. `declare` replaces the
    * catalog declared before.
    */
  object RavenIntegrity {
    @volatile private[sparkext] var declared: Option[SchemaCatalog] = None
    def declare(catalog: SchemaCatalog): Unit = declared = Some(catalog)
    def clear(): Unit = declared = None

    private lazy val columnNameWarning: Unit = Console.err.println(
      "RavenIntegrity.declareRowPreserving: a column-name pair licenses no join elimination; " +
        "declare a SchemaCatalog with RavenIntegrity.declare")

    @deprecated("declare a SchemaCatalog with RavenIntegrity.declare; a column-name pair licenses nothing", "0.6")
    def declareRowPreserving(leftKey: String, rightKey: String): Unit = columnNameWarning
  }
}
