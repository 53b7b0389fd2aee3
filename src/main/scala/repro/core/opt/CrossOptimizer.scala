package repro.core.opt

import repro.core.ir._
import repro.ml._

/** The Cross Optimizer's relational half (§4.3): filter pushdown, then
  * projection pruning with catalog-licensed join elimination, over the
  * unified IR. The model rewrites — predicate-based pruning, model-projection
  * pushdown and inlining — are Catalyst rules ([[repro.sparkext.RavenRules]])
  * that fire on the lowered plan, so the IR and SQL paths share one model
  * rewriter. NN translation is an explicit call, [[CrossOptimizer.NNTranslation]].
  */
object CrossOptimizer {

  def optimize(ir: IRNode, catalog: SchemaCatalog): IRNode =
    ProjectionPruning(FilterPushdown(ir), catalog)

  // ---- standard relational rules -----------------------------------------

  /** Push filter conjuncts through projections, model invocations (when the
    * predicate does not reference the score), and to the relevant side of
    * joins. Runs to fixpoint.
    */
  object FilterPushdown {
    def apply(ir: IRNode): IRNode = {
      var cur = ir
      var changed = true
      while (changed) {
        val next = step(cur)
        changed = next != cur
        cur = next
      }
      cur
    }

    private def step(ir: IRNode): IRNode = ir.transformUp {
      case IRFilter(pred, IRFilter(inner, c)) => IRFilter(And(pred, inner), c)

      case f @ IRFilter(pred, p @ IRProject(cols, c)) =>
        val passthrough = cols.collect { case NamedExpr(n, ColRef(src)) => n -> src }.toMap
        val (pushable, stuck) = ScalarExpr.conjuncts(pred)
          .partition(_.references.forall(passthrough.contains))
        if (pushable.isEmpty) f
        else {
          val renamed = pushable.map(rename(_, passthrough))
          val below = IRFilter(ScalarExpr.conjunction(renamed).get, c)
          val proj = p.copy(child = below)
          ScalarExpr.conjunction(stuck).map(IRFilter(_, proj)).getOrElse(proj)
        }

      case f @ IRFilter(pred, pr: IRPredict) =>
        pushThroughAppend(f, pred, pr.outputCol, pr.child, ch => pr.copy(child = ch))
      case f @ IRFilter(pred, pr: IRNNPredict) =>
        pushThroughAppend(f, pred, pr.outputCol, pr.child, ch => pr.copy(child = ch))

      case f @ IRFilter(pred, j @ IRJoin(l, r, _, _)) =>
        val lCols = l.outputCols.toSet
        val rCols = r.outputCols.toSet
        val (toL, rest) = ScalarExpr.conjuncts(pred).partition(_.references.subsetOf(lCols))
        val (toR, stuck) = rest.partition(_.references.subsetOf(rCols))
        if (toL.isEmpty && toR.isEmpty) f
        else {
          val nl = ScalarExpr.conjunction(toL).map(IRFilter(_, l)).getOrElse(l)
          val nr = ScalarExpr.conjunction(toR).map(IRFilter(_, r)).getOrElse(r)
          val nj = j.copy(left = nl, right = nr)
          ScalarExpr.conjunction(stuck).map(IRFilter(_, nj)).getOrElse(nj)
        }
    }

    private def pushThroughAppend(
        orig: IRNode, pred: ScalarExpr, outputCol: String, child: IRNode, rebuild: IRNode => IRNode): IRNode = {
      val (stuck, pushable) = ScalarExpr.conjuncts(pred).partition(_.references.contains(outputCol))
      if (pushable.isEmpty) orig
      else {
        val below = IRFilter(ScalarExpr.conjunction(pushable).get, child)
        val rebuilt = rebuild(below)
        ScalarExpr.conjunction(stuck).map(IRFilter(_, rebuilt)).getOrElse(rebuilt)
      }
    }

    private def rename(e: ScalarExpr, m: Map[String, String]): ScalarExpr = e match {
      case ColRef(n)     => ColRef(m.getOrElse(n, n))
      case Cmp(op, l, r) => Cmp(op, rename(l, m), rename(r, m))
      case And(l, r)     => And(rename(l, m), rename(r, m))
      case Or(l, r)      => Or(rename(l, m), rename(r, m))
      case Not(x)        => Not(rename(x, m))
      case other         => other
    }
  }

  // ---- operator transformations (§4.2) -----------------------------------

  /** NN translation: compile remaining Predict operators (featurizers
    * included) into OnnxLite LA graphs for execution by the NN runtime.
    */
  object NNTranslation {
    def apply(ir: IRNode): IRNode = ir.transformUp {
      case IRPredict(out, mp, child) if translatable(mp) =>
        IRNNPredict(out, NNPipelineModel(NNTranslator.translatePipeline(mp), mp.pipeline), child)
    }

    def translatable(mp: ModelPipeline): Boolean = mp.model match {
      case _: DecisionTreeModel | _: RandomForestModel | _: LinearModel | _: MlpModel => true
      case _ => false
    }
  }

  /** Projection pruning + join elimination: narrow scans to the columns the
    * plan actually needs; an inner FK-join whose right side contributes
    * nothing but its (primary-key) join key is dropped entirely (§4.1).
    */
  object ProjectionPruning {
    def apply(ir: IRNode, catalog: SchemaCatalog): IRNode = prune(ir, ir.outputCols.toSet, catalog)

    private def prune(ir: IRNode, needed: Set[String], catalog: SchemaCatalog): IRNode = ir match {
      case IRScan(t, cols) =>
        val kept = cols.filter(needed.contains)
        IRScan(t, if (kept.isEmpty) cols.take(1) else kept) // keep ≥1 col for well-formedness
      case IRFilter(pred, c) =>
        IRFilter(pred, prune(c, needed ++ pred.references, catalog))
      case IRProject(cols, c) =>
        val keptCols = cols.filter(ne => needed.contains(ne.name))
        val finalCols = if (keptCols.isEmpty) cols else keptCols
        IRProject(finalCols, prune(c, finalCols.flatMap(_.expr.references).toSet, catalog))
      case IRJoin(l, r, lk, rk) =>
        val neededL = needed.intersect(l.outputCols.toSet) + lk
        val neededR = needed.intersect(r.outputCols.toSet) + rk
        val fromRight = needed.intersect(r.outputCols.toSet) - rk
        // rk must not be referenced downstream under a different name than lk
        val keyNameSafe = lk == rk || !needed.contains(rk)
        if (fromRight.isEmpty && keyNameSafe && rowPreserving(l, lk, r, rk, catalog))
          prune(l, needed.intersect(l.outputCols.toSet) + lk, catalog)
        else
          IRJoin(prune(l, neededL, catalog), prune(r, neededR, catalog), lk, rk)
      case p @ IRPredict(out, mp, c) =>
        p.copy(child = prune(c, (needed - out) ++ mp.inputCols, catalog))
      case p @ IRNNPredict(out, nn, c) =>
        p.copy(child = prune(c, (needed - out) ++ nn.inputCols, catalog))
      case u @ IRUdf(_, out, inputCols, _, c) =>
        u.copy(child = prune(c, (needed - out) ++ inputCols, catalog))
    }

    /** The join is droppable iff the right side is a bare scan of a table
      * whose primary key is `rk` and a declared FK guarantees every left
      * row matches exactly once.
      */
    private def rowPreserving(l: IRNode, lk: String, r: IRNode, rk: String, catalog: SchemaCatalog): Boolean =
      r match {
        case IRScan(t, _) =>
          ownerTable(l, lk).exists(lt => catalog.isRowPreserving(lt, lk, t, rk))
        case _ => false
      }

    /** Table in the left subtree that produces column `lk`. */
    private def ownerTable(ir: IRNode, col: String): Option[String] =
      ir.collectNodes.collectFirst { case IRScan(t, cols) if cols.contains(col) => t }
  }
}
