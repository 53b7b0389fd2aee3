package repro.onnx

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSyntax._
import repro.TestModels.numericPipeline
import repro.ml._

/** Property-style checks: the optimizer passes must preserve graph
  * semantics on realistic (translator-emitted) graphs.
  */
class PassesPropertySpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(71)

  private def randomTree(depth: Int, nf: Int): TreeNode =
    if (depth == 0 || rnd.nextDouble() < 0.3) Leaf(rnd.nextInt(10).toDouble)
    else Split(rnd.nextInt(nf), rnd.nextDouble() * 10, randomTree(depth - 1, nf), randomTree(depth - 1, nf))

  test("optimize preserves semantics on 50 random translated models") {
    for (i <- 1 to 50) {
      val nf = 1 + rnd.nextInt(5)
      val model: Model = rnd.nextInt(3) match {
        case 0 => DecisionTreeModel(randomTree(4, nf), nf, isClassifier = false)
        case 1 => LinearModel(Array.fill(nf)(rnd.nextGaussian()), rnd.nextGaussian(), logistic = true)
        case 2 => RandomForestModel(IndexedSeq.fill(2)(
          DecisionTreeModel(randomTree(3, nf), nf, isClassifier = false)), isClassifier = false)
      }
      val mp = numericPipeline(s"p$i", model)
      val g = NNTranslator.translatePipeline(mp)
      val x = NNPipelineModel(g, mp.pipeline).feeds(
        IndexedSeq.fill(20)(IndexedSeq.fill(nf)((rnd.nextFloat() - 0.5f) * 20)))
      val raw = new Session(g, optimizeGraph = false).run(x)
      val opt = new Session(g, optimizeGraph = true).run(x)
      assert(raw.approxEquals(opt, 0f), s"model $i: optimization changed results")
    }
  }

  test("optimize never increases node count") {
    for (i <- 1 to 20) {
      val nf = 1 + rnd.nextInt(5)
      val g = NNTranslator.translatePipeline(
        numericPipeline(s"n$i", DecisionTreeModel(randomTree(4, nf), nf, isClassifier = false)))
      assert(Passes.optimize(g).nodeCount <= g.nodeCount)
    }
  }

  test("binding every input folds the whole graph to a constant") {
    val m = LinearModel(Array(2.0, -1.0), 0.5, logistic = false)
    val mp = ModelPipeline("bind_all", FeaturePipeline(Seq("x", "y"), Nil), None, m)
    val g = NNTranslator.translatePipeline(mp)
    val bound = Passes.optimize(Passes.bindInput(Passes.bindInput(g, "x", 3f), "y", 4f))
    assert(bound.nodes.isEmpty, s"expected full fold, got ${bound.nodes}")
    assert(bound.initializers(bound.output).data.toSeq == Seq(2f * 3 - 4 + 0.5f))
  }

  test("dead-node elimination after pruning drops unreachable weights") {
    val tree = DecisionTreeModel(
      Split(0, 5.0, Leaf(1.0), Split(1, 2.0, Leaf(2.0), Leaf(3.0))), 2, isClassifier = false)
    val pruned = ModelPruner.pruneTree(tree, Map(0 -> FeatureConstraint.lessThan(5.0)))
    val gFull = NNTranslator.translatePipeline(numericPipeline("full", tree))
    val gPruned = NNTranslator.translatePipeline(numericPipeline("pruned", pruned))
    assert(Passes.optimize(gPruned).weightElems < Passes.optimize(gFull).weightElems)
  }
}
