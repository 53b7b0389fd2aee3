package repro.ml

/** Predicate-based model pruning and model-projection pushdown (§4.1) at
  * the model level. The cross-optimizer (and the Catalyst rules) call into
  * these rewrites; everything here is engine-independent.
  */
object ModelPruner {

  /** Prune tree branches unreachable under the given per-feature
    * constraints. Semantics preserved for every input satisfying the
    * constraints (property-tested).
    */
  def pruneTree(model: DecisionTreeModel, constraints: Map[Int, FeatureConstraint]): DecisionTreeModel = {
    def walk(n: TreeNode): TreeNode = n match {
      case l: Leaf => l
      case Split(f, t, l, r) =>
        constraints.get(f) match {
          case Some(c) if c.alwaysBelow(t)   => walk(l)
          case Some(c) if c.alwaysAtLeast(t) => walk(r)
          case _                             => Split(f, t, walk(l), walk(r))
        }
    }
    model.copy(root = walk(model.root))
  }

  def pruneForest(model: RandomForestModel, constraints: Map[Int, FeatureConstraint]): RandomForestModel =
    model.copy(trees = model.trees.map(pruneTree(_, constraints)))

  /** Fold pinned features (`x_i = v`) into the intercept and zero their
    * weights. The zeroed weights then make the features eligible for
    * model-projection pushdown.
    */
  def pruneLinear(model: LinearModel, constraints: Map[Int, FeatureConstraint]): LinearModel = {
    val w = model.weights.clone()
    var b = model.intercept
    constraints.foreach { case (f, c) =>
      c.equalTo.foreach { v =>
        if (f < w.length && w(f) != 0.0) { b += w(f) * v; w(f) = 0.0 }
      }
    }
    model.copy(weights = w, intercept = b)
  }

  def prune(model: Model, constraints: Map[Int, FeatureConstraint]): Model = model match {
    case m: DecisionTreeModel => pruneTree(m, constraints)
    case m: RandomForestModel => pruneForest(m, constraints)
    case m: LinearModel       => pruneLinear(m, constraints)
    case other                => other // MLP/NN: no structural pruning implemented
  }

  /** Translate raw-column predicates into feature-index constraints through
    * a featurization pipeline.
    *
    * A numeric predicate maps to its passthrough feature. A categorical
    * equality `col = v` pins the whole one-hot block: the matching
    * indicator to 1, every sibling to 0 (and an unseen `v` pins the whole
    * block to 0).
    */
  def toFeatureConstraints(
      pipeline: FeaturePipeline,
      predicates: Seq[ColPredicate],
  ): Map[Int, FeatureConstraint] = {
    val out = scala.collection.mutable.Map[Int, FeatureConstraint]()
    def add(i: Int, c: FeatureConstraint): Unit =
      out(i) = out.get(i).map(_.intersect(c)).getOrElse(c)

    predicates.foreach {
      case NumRange(col, c) if pipeline.numericCols.contains(col) =>
        add(pipeline.numericIndex(col), c)
      case CatEquals(col, value) if pipeline.isCategorical(col) =>
        val (off, enc) = pipeline.encoderBlock(col)
        val hit = enc.indexOf(value)
        (0 until enc.width).foreach { i =>
          add(off + i, FeatureConstraint.equalTo(if (i == hit) 1.0 else 0.0))
        }
      case _ => // predicate on a column the model does not consume: nothing to prune
    }
    out.toMap
  }

  /** Model-projection pushdown (§4.1): after pruning, drop from the
    * pipeline every feature the model does not read, numeric features and
    * single one-hot categories alike.
    *
    * Returns the projected pipeline, the model rewritten over it, and the
    * raw columns that lost every feature (which Catalyst can then prune
    * from scans, and which may let joins be eliminated).
    */
  def projectPipeline(pipeline: FeaturePipeline, model: Model): (FeaturePipeline, Model, Seq[String]) = {
    val kept = model.usedFeatures.toIndexedSeq.sorted
    if (kept.size == pipeline.numFeatures) return (pipeline, model, Nil)
    val projected = pipeline.project(kept.toSet)
    (projected, reindex(model, kept, pipeline.numFeatures), pipeline.inputCols.filterNot(projected.inputCols.contains))
  }

  /** Whether [[reindex]] can rewrite `model`: a tree, a forest or a linear model. */
  def reindexable(model: Model): Boolean = model match {
    case _: DecisionTreeModel | _: RandomForestModel | _: LinearModel => true
    case _                                                            => false
  }

  /** Rewrite a model to read features from a compacted vector where old
    * index `kept(i)` now lives at `i`. Features outside `kept` must be
    * unused by the model.
    */
  def reindex(model: Model, kept: IndexedSeq[Int], oldNumFeatures: Int): Model = {
    val oldToNew = Array.fill(oldNumFeatures)(-1)
    kept.zipWithIndex.foreach { case (old, nw) => oldToNew(old) = nw }
    require(model.usedFeatures.forall(f => oldToNew(f) >= 0),
      "cannot reindex: model uses a dropped feature")

    def reTree(t: DecisionTreeModel): DecisionTreeModel = {
      def walk(n: TreeNode): TreeNode = n match {
        case l: Leaf           => l
        case Split(f, th, l, r) => Split(oldToNew(f), th, walk(l), walk(r))
      }
      t.copy(root = walk(t.root), numFeatures = kept.size)
    }

    model match {
      case m: DecisionTreeModel => reTree(m)
      case m: RandomForestModel => m.copy(trees = m.trees.map(reTree))
      case m: LinearModel       => m.copy(weights = kept.map(m.weights).toArray)
      case other =>
        throw new IllegalArgumentException(s"reindex unsupported for ${other.getClass.getSimpleName}")
    }
  }
}
