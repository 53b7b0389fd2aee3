package repro.ml

/** Binary decision-tree node. Split semantics: `x(feature) < threshold`
  * goes left, otherwise right.
  */
sealed trait TreeNode extends Serializable {
  def size: Int = this match {
    case _: Leaf           => 1
    case Split(_, _, l, r) => 1 + l.size + r.size
  }
  def depth: Int = this match {
    case _: Leaf           => 1
    case Split(_, _, l, r) => 1 + math.max(l.depth, r.depth)
  }
}

final case class Leaf(value: Double) extends TreeNode

final case class Split(feature: Int, threshold: Double, left: TreeNode, right: TreeNode) extends TreeNode

/** CART decision tree. For classifiers the leaf value is the class-1
  * probability; for regressors, the mean target.
  */
final case class DecisionTreeModel(
    root: TreeNode,
    numFeatures: Int,
    isClassifier: Boolean,
) extends Model {

  def predict(x: Array[Double]): Double = {
    var n = root
    while (true) {
      n match {
        case Leaf(v)               => return v
        case Split(f, t, l, r)     => n = if (x(f) < t) l else r
      }
    }
    throw new IllegalStateException("unreachable")
  }

  def usedFeatures: Set[Int] = {
    def walk(n: TreeNode): Set[Int] = n match {
      case _: Leaf           => Set.empty
      case Split(f, _, l, r) => walk(l) ++ walk(r) + f
    }
    walk(root)
  }

  def nodeCount: Int = root.size

  /** Internal (split) nodes in a stable preorder — the contract the NN
    * translator and tests rely on.
    */
  def internalNodes: IndexedSeq[Split] = {
    val buf = IndexedSeq.newBuilder[Split]
    def walk(n: TreeNode): Unit = n match {
      case s @ Split(_, _, l, r) => buf += s; walk(l); walk(r)
      case _                     =>
    }
    walk(root)
    buf.result()
  }

  def leaves: IndexedSeq[Leaf] = {
    val buf = IndexedSeq.newBuilder[Leaf]
    def walk(n: TreeNode): Unit = n match {
      case l: Leaf           => buf += l
      case Split(_, _, l, r) => walk(l); walk(r)
    }
    walk(root)
    buf.result()
  }
}

object DecisionTree {

  /** Train a CART tree.
    *
    * Splits are chosen among per-feature quantile candidate thresholds
    * (scikit-learn's `best` splitter over a histogram-like candidate set),
    * minimizing Gini impurity (classification) or variance (regression).
    */
  def train(
      x: Array[Array[Double]],
      y: Array[Double],
      isClassifier: Boolean,
      maxDepth: Int = 8,
      minSamplesLeaf: Int = 10,
      maxCandidates: Int = 32,
      featureSubset: Option[IndexedSeq[Int]] = None,
  ): DecisionTreeModel = {
    require(x.nonEmpty && x.length == y.length, "bad training data")
    val d = x(0).length
    val features = featureSubset.getOrElse(IndexedSeq.range(0, d))

    def impurity(sum: Double, sumSq: Double, n: Int): Double =
      if (n == 0) 0.0
      else if (isClassifier) { val p = sum / n; p * (1 - p) } // Gini/2 for binary
      else sumSq / n - (sum / n) * (sum / n)                  // variance

    def candidates(values: Array[Double]): Array[Double] = {
      val sorted = values.distinct.sorted
      if (sorted.length <= 1) Array.empty
      else if (sorted.length <= maxCandidates + 1)
        sorted.sliding(2).map(p => (p(0) + p(1)) / 2).toArray
      else
        Array.tabulate(maxCandidates) { i =>
          val a = sorted(((i.toLong + 1) * (sorted.length - 1) / (maxCandidates + 1)).toInt)
          val b = sorted(math.min(sorted.length - 1, ((i.toLong + 1) * (sorted.length - 1) / (maxCandidates + 1)).toInt + 1))
          (a + b) / 2
        }.distinct
    }

    def build(idx: Array[Int], depth: Int): TreeNode = {
      val total = idx.length
      var sum = 0.0; var sumSq = 0.0
      idx.foreach { i => sum += y(i); sumSq += y(i) * y(i) }
      val parentImp = impurity(sum, sumSq, total)
      if (depth >= maxDepth || total < 2 * minSamplesLeaf || parentImp <= 1e-12)
        return Leaf(sum / total)

      var bestGain = 1e-9
      var bestF = -1
      var bestT = 0.0
      features.foreach { f =>
        val vals = idx.map(i => x(i)(f))
        candidates(vals).foreach { t =>
          var lSum = 0.0; var lSq = 0.0; var lN = 0
          var k = 0
          while (k < idx.length) {
            val yi = y(idx(k))
            if (x(idx(k))(f) < t) { lSum += yi; lSq += yi * yi; lN += 1 }
            k += 1
          }
          val rN = total - lN
          if (lN >= minSamplesLeaf && rN >= minSamplesLeaf) {
            val gain = parentImp -
              (lN.toDouble / total) * impurity(lSum, lSq, lN) -
              (rN.toDouble / total) * impurity(sum - lSum, sumSq - lSq, rN)
            if (gain > bestGain) { bestGain = gain; bestF = f; bestT = t }
          }
        }
      }
      if (bestF < 0) return Leaf(sum / total)
      val (li, ri) = idx.partition(i => x(i)(bestF) < bestT)
      Split(bestF, bestT, build(li, depth + 1), build(ri, depth + 1))
    }

    DecisionTreeModel(build(Array.range(0, x.length), 0), d, isClassifier)
  }
}

/** Random forest: bagged CART trees with per-tree feature subsampling;
  * prediction is the mean of tree outputs (class-1 probability for
  * classifiers).
  */
final case class RandomForestModel(trees: IndexedSeq[DecisionTreeModel], isClassifier: Boolean) extends Model {
  require(trees.nonEmpty, "empty forest")

  def numFeatures: Int = trees.head.numFeatures

  def predict(x: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < trees.length) { s += trees(i).predict(x); i += 1 }
    s / trees.length
  }

  def usedFeatures: Set[Int] = trees.iterator.flatMap(_.usedFeatures).toSet

  def totalNodes: Int = trees.map(_.nodeCount).sum
}

object RandomForest {

  def train(
      x: Array[Array[Double]],
      y: Array[Double],
      isClassifier: Boolean,
      numTrees: Int = 10,
      maxDepth: Int = 6,
      minSamplesLeaf: Int = 10,
      seed: Long = 7,
  ): RandomForestModel = {
    require(x.nonEmpty, "empty training data")
    val d = x(0).length
    val mtry = math.max(1, math.round(math.sqrt(d.toDouble)).toInt)
    val trees = (0 until numTrees).map { t =>
      val rnd = new scala.util.Random(seed + t)
      val idx = Array.fill(x.length)(rnd.nextInt(x.length))
      val bx = idx.map(x)
      val by = idx.map(y)
      val feats = rnd.shuffle((0 until d).toIndexedSeq).take(math.max(mtry, d / 2)).sorted
      DecisionTree.train(bx, by, isClassifier, maxDepth, minSamplesLeaf, featureSubset = Some(feats))
    }
    RandomForestModel(trees.toIndexedSeq, isClassifier)
  }
}
