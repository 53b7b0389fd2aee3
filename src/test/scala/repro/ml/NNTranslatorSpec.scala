package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.TestModels
import repro.data.{FlightData, HospitalData}

/** NN translation must be semantics-preserving: the LA graph and the
  * interpreted model agree on every input (modulo float32 rounding).
  */
class NNTranslatorSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(41)

  // Continuous thresholds/inputs: exact threshold hits would expose the
  // inherent float32-vs-float64 boundary difference between the graph and
  // the interpreted tree (a measure-zero event for continuous draws).
  private def randomTree(depth: Int, numFeatures: Int): TreeNode =
    if (depth == 0 || rnd.nextDouble() < 0.2) Leaf((rnd.nextInt(20)).toDouble)
    else Split(rnd.nextInt(numFeatures), rnd.nextDouble() * 10,
      randomTree(depth - 1, numFeatures), randomTree(depth - 1, numFeatures))

  private def assertAgree(model: Model, n: Int = 100, eps: Double = 1e-3): Unit = {
    val mp = TestModels.numericPipeline(s"m${rnd.nextInt()}", model)
    val nn = NNPipelineModel(NNTranslator.translatePipeline(mp), mp.pipeline)
    val xs = Array.fill(n)(Array.fill(model.numFeatures)(rnd.nextDouble() * 20 - 5))
    val got = nn.predictRawBatch(xs.map(_.toIndexedSeq).toIndexedSeq)
    val want = xs.map(model.predict)
    got.zip(want).zipWithIndex.foreach { case ((g, w), i) =>
      assert(math.abs(g - w) <= eps, s"row $i: graph=$g model=$w")
    }
  }

  test("random trees translate exactly (200 trees)") {
    for (_ <- 1 to 200) {
      val nf = 1 + rnd.nextInt(6)
      assertAgree(DecisionTreeModel(randomTree(5, nf), nf, isClassifier = false), n = 40)
    }
  }

  test("single-leaf tree translates to a constant graph") {
    assertAgree(DecisionTreeModel(Leaf(7.5), 3, isClassifier = false), n = 10)
  }

  test("tree with structurally identical subtrees translates correctly") {
    // both subtrees identical — exercises identity-based node indexing
    val sub: TreeNode = Split(1, 5.0, Leaf(1.0), Leaf(2.0))
    val t = DecisionTreeModel(Split(0, 3.0, sub, Split(1, 5.0, Leaf(1.0), Leaf(2.0))), 2, isClassifier = false)
    assertAgree(t, n = 50)
  }

  test("hand tree translates exactly on hospital rows") {
    val mp = TestModels.handTreePipeline
    val nn = NNPipelineModel(NNTranslator.translatePipeline(mp), mp.pipeline)
    val raw = TestModels.hospitalRows.take(200).map(HospitalData.rawValues).toIndexedSeq
    val got = nn.predictRawBatch(raw)
    raw.zip(got).foreach { case (r, g) =>
      assert(math.abs(g - TestModels.handTree.predict(mp.pipeline.transform(r))) < 1e-4)
    }
  }

  test("random forests translate (20 forests)") {
    for (_ <- 1 to 20) {
      val nf = 2 + rnd.nextInt(4)
      val trees = IndexedSeq.fill(1 + rnd.nextInt(5))(
        DecisionTreeModel(randomTree(4, nf), nf, isClassifier = false))
      assertAgree(RandomForestModel(trees, isClassifier = false), n = 30)
    }
  }

  test("linear and logistic models translate") {
    for (_ <- 1 to 20) {
      val d = 1 + rnd.nextInt(10)
      val w = Array.fill(d)(rnd.nextGaussian())
      assertAgree(LinearModel(w, rnd.nextGaussian(), logistic = false), n = 30, eps = 1e-2)
      assertAgree(LinearModel(w, rnd.nextGaussian(), logistic = true), n = 30, eps = 1e-3)
    }
  }

  test("MLP translates") {
    val m = MlpModel.train(
      Array.fill(200)(Array.fill(4)(rnd.nextGaussian())),
      Array.fill(200)(rnd.nextInt(2).toDouble),
      hidden = Seq(6, 3), epochs = 1)
    assertAgree(m, n = 50, eps = 1e-3)
  }

  test("whole pipeline translates: featurization in-graph (flight LR)") {
    val mp = TestModels.flightLrPipeline
    val graph = NNTranslator.translatePipeline(mp)
    assert(graph.inputs == mp.inputCols)
    val nn = NNPipelineModel(graph, mp.pipeline)
    val rows = TestModels.flightRows.take(300).map(FlightData.rawValues)
    val got = nn.predictRawBatch(rows.toIndexedSeq)
    rows.zip(got).foreach { case (r, g) =>
      assert(math.abs(g - mp.predictRaw(r)) < 1e-3, s"row $r")
    }
  }

  test("pipeline with scaler translates (hospital MLP)") {
    val mp = TestModels.hospitalMlpPipeline
    val graph = NNTranslator.translatePipeline(mp)
    val nn = NNPipelineModel(graph, mp.pipeline)
    val rows = TestModels.hospitalRows.take(200).map(HospitalData.rawValues)
    val got = nn.predictRawBatch(rows.toIndexedSeq)
    rows.zip(got).foreach { case (r, g) =>
      assert(math.abs(g - mp.predictRaw(r)) < 5e-3, s"row $r")
    }
  }

  test("pipeline graph one-hot encodes unknown categories to zeros") {
    val pipe = FeaturePipeline(Seq("a"), Seq(OneHotEncoder("c", IndexedSeq("x", "y"))))
    val m = LinearModel(Array(1.0, 10.0, 100.0), 0.0, logistic = false)
    val mp = ModelPipeline("t", pipe, None, m)
    val nn = NNPipelineModel(NNTranslator.translatePipeline(mp), pipe)
    val preds = nn.predictRawBatch(IndexedSeq(IndexedSeq(2.0, "zz"), IndexedSeq(2.0, "y")))
    assert(preds(0) == 2.0)   // unknown category contributes nothing
    assert(preds(1) == 102.0)
  }

  test("translated pruned tree equals pruned interpreted tree") {
    val pruned = ModelPruner.pruneTree(TestModels.handTree, Map(1 -> FeatureConstraint.equalTo(1.0)))
    assertAgree(pruned, n = 50)
  }

  test("unsupported model type is rejected") {
    val fake = new Model {
      def numFeatures = 1
      def predict(x: Array[Double]) = 0.0
      def usedFeatures = Set.empty
    }
    assertThrows[IllegalArgumentException](NNTranslator.translatePipeline(TestModels.numericPipeline("nope", fake)))
  }

  test("predictBatch returns doubles") {
    val mp = TestModels.numericPipeline("lin", LinearModel(Array(2.0, -1.0), 0.5, logistic = true))
    val nn = NNPipelineModel(NNTranslator.translatePipeline(mp), mp.pipeline)
    val out = nn.predictRawBatch(IndexedSeq(IndexedSeq(0.0, 0.0)))
    assert(math.abs(out(0) - 1.0 / (1.0 + math.exp(-0.5))) < 1e-5)
    assert(nn.predictRawBatch(IndexedSeq.empty).isEmpty)
  }
}
