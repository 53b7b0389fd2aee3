package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.{OracleSql, TestModels}

class DecisionTreeSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(9)

  test("learns a planted threshold function") {
    val x = Array.fill(2000)(Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10))
    val y = x.map(r => if (r(0) < 5.0) 1.0 else 0.0)
    val t = DecisionTree.train(x, y, isClassifier = true, maxDepth = 3, minSamplesLeaf = 5)
    val acc = x.zip(y).count { case (r, l) => (t.predict(r) >= 0.5) == (l >= 0.5) }.toDouble / x.length
    assert(acc > 0.97, s"accuracy $acc")
  }

  test("regression tree reduces error vs mean predictor") {
    val x = Array.fill(2000)(Array(rnd.nextDouble() * 10))
    val y = x.map(r => if (r(0) < 3) 1.0 else if (r(0) < 7) 5.0 else 9.0)
    val t = DecisionTree.train(x, y, isClassifier = false, maxDepth = 4, minSamplesLeaf = 5)
    val mean = y.sum / y.length
    val mseTree = x.zip(y).map { case (r, l) => math.pow(t.predict(r) - l, 2) }.sum / y.length
    val mseMean = y.map(l => math.pow(l - mean, 2)).sum / y.length
    assert(mseTree < mseMean * 0.05, s"tree mse $mseTree vs mean mse $mseMean")
  }

  test("respects maxDepth and minSamplesLeaf") {
    val x = Array.fill(500)(Array(rnd.nextDouble()))
    val y = x.map(r => r(0))
    val t = DecisionTree.train(x, y, isClassifier = false, maxDepth = 3, minSamplesLeaf = 20)
    assert(t.root.depth <= 4) // depth counts nodes along path; maxDepth=3 splits
  }

  test("training is deterministic") {
    val x = Array.fill(300)(Array(rnd.nextDouble(), rnd.nextDouble()))
    val y = x.map(r => r(0) + r(1))
    val t1 = DecisionTree.train(x, y, isClassifier = false)
    val t2 = DecisionTree.train(x, y, isClassifier = false)
    assert(t1.root == t2.root)
  }

  test("pure node becomes a leaf") {
    val x = Array.fill(100)(Array(rnd.nextDouble()))
    val y = Array.fill(100)(3.0)
    val t = DecisionTree.train(x, y, isClassifier = false)
    assert(t.root == Leaf(3.0))
  }

  test("predict traverses hand-built tree correctly") {
    val t = TestModels.handTree
    // pregnant=0, age 30 -> 2.0 ; pregnant=1, bp 150, age 40 -> 10.0
    val base = Array.fill(t.numFeatures)(0.0)
    val a = base.clone(); a(1) = 0.0; a(0) = 30
    assert(t.predict(a) == 2.0)
    val b = base.clone(); b(1) = 1.0; b(8) = 150; b(0) = 40
    assert(t.predict(b) == 10.0)
    val c = base.clone(); c(1) = 1.0; c(8) = 120
    assert(t.predict(c) == 5.0)
  }

  test("usedFeatures collects split features") {
    assert(TestModels.handTree.usedFeatures == Set(0, 1, 8))
  }

  test("nodeCount, internalNodes, leaves are consistent") {
    val t = TestModels.handTree
    assert(t.nodeCount == t.internalNodes.size + t.leaves.size)
    assert(t.internalNodes.size == 4)
    assert(t.leaves.size == 5)
  }

  test("toCaseSql renders nested CASE with thresholds") {
    val names = (0 until TestModels.handTree.numFeatures).map(i => s"f$i")
    val sql = OracleSql.toCaseSql(TestModels.handTree, names.toIndexedSeq)
    assert(sql.contains("CASE WHEN f1 < 0.5"))
    assert(sql.contains("f8 < 140.0"))
    assert(sql.contains("CAST(10.0 AS DOUBLE)"))
  }

  test("toCaseSql arity check") {
    assertThrows[IllegalArgumentException](OracleSql.toCaseSql(TestModels.handTree, IndexedSeq("a")))
  }

  test("forest averages trees and aggregates usedFeatures") {
    val t1 = DecisionTreeModel(Leaf(2.0), 3, isClassifier = false)
    val t2 = DecisionTreeModel(Split(1, 0.5, Leaf(0.0), Leaf(4.0)), 3, isClassifier = false)
    val f = RandomForestModel(IndexedSeq(t1, t2), isClassifier = false)
    assert(f.predict(Array(0, 1.0, 0)) == 3.0)
    assert(f.predict(Array(0, 0.0, 0)) == 1.0)
    assert(f.usedFeatures == Set(1))
    assert(f.totalNodes == 4)
  }

  test("trained forest beats single deep-limited tree on planted xor-ish data") {
    val x = Array.fill(3000)(Array(rnd.nextDouble(), rnd.nextDouble(), rnd.nextDouble()))
    val y = x.map(r => if ((r(0) < 0.5) != (r(1) < 0.5)) 1.0 else 0.0)
    val f = RandomForest.train(x, y, isClassifier = true, numTrees = 15, maxDepth = 6, minSamplesLeaf = 5)
    val acc = x.zip(y).count { case (r, l) => (f.predict(r) >= 0.5) == (l >= 0.5) }.toDouble / x.length
    assert(acc > 0.9, s"forest accuracy $acc")
  }

  test("forest training is deterministic given the seed") {
    val x = Array.fill(300)(Array(rnd.nextDouble(), rnd.nextDouble()))
    val y = x.map(r => r(0))
    val f1 = RandomForest.train(x, y, isClassifier = false, numTrees = 3, seed = 42)
    val f2 = RandomForest.train(x, y, isClassifier = false, numTrees = 3, seed = 42)
    assert(f1.trees.map(_.root) == f2.trees.map(_.root))
  }

  test("hospital tree splits on the planted drivers") {
    val used = TestModels.hospitalTree.usedFeatures.map(HospitalData_featureName)
    assert(used.contains("pregnant") || used.contains("bp") || used.contains("age"),
      s"tree uses $used")
  }

  private def HospitalData_featureName(i: Int): String =
    repro.data.HospitalData.pipeline.featureNames(i)
}
