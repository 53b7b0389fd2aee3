package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.TestModels
import repro.data.{FlightData, HospitalData}

class ModelPrunerSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(31)

  // random tree generator for property-style checks
  private def randomTree(depth: Int, numFeatures: Int): TreeNode =
    if (depth == 0 || rnd.nextDouble() < 0.25) Leaf(rnd.nextInt(100).toDouble)
    else Split(rnd.nextInt(numFeatures), rnd.nextDouble() * 10,
      randomTree(depth - 1, numFeatures), randomTree(depth - 1, numFeatures))

  test("FeatureConstraint algebra") {
    val c = FeatureConstraint.equalTo(5.0)
    assert(c.equalTo.contains(5.0))
    assert(c.alwaysBelow(6.0) && !c.alwaysBelow(5.0))
    assert(c.alwaysAtLeast(5.0) && !c.alwaysAtLeast(5.1))
    val lt = FeatureConstraint.lessThan(3.0)
    assert(lt.alwaysBelow(3.0) && !lt.alwaysBelow(2.9))
    val ge = FeatureConstraint.atLeast(2.0)
    assert(ge.alwaysAtLeast(2.0) && !ge.alwaysAtLeast(2.5))
    val i = lt.intersect(FeatureConstraint.atLeast(1.0))
    assert(i.contains(2.0) && !i.contains(3.0) && !i.contains(0.5))
  }

  test("pruned tree equals original on constraint-satisfying inputs (500 random trees)") {
    for (_ <- 1 to 500) {
      val nf = 4
      val tree = DecisionTreeModel(randomTree(4, nf), nf, isClassifier = false)
      val f = rnd.nextInt(nf)
      val v = rnd.nextDouble() * 10
      val constraint = rnd.nextInt(3) match {
        case 0 => FeatureConstraint.equalTo(v)
        case 1 => FeatureConstraint.lessThan(v)
        case 2 => FeatureConstraint.atLeast(v)
      }
      val pruned = ModelPruner.pruneTree(tree, Map(f -> constraint))
      assert(pruned.nodeCount <= tree.nodeCount)
      // sample satisfying inputs
      for (_ <- 1 to 20) {
        val x = Array.fill(nf)(rnd.nextDouble() * 10)
        x(f) = constraint match {
          case c if c.equalTo.isDefined => v
          case c if c.hi < Double.PositiveInfinity => rnd.nextDouble() * v
          case _ => v + rnd.nextDouble() * (10 - v).max(0.1)
        }
        assert(constraint.contains(x(f)))
        assert(tree.predict(x) == pruned.predict(x),
          s"mismatch at ${x.toSeq} constraint=$constraint f=$f")
      }
    }
  }

  test("pruning the hand tree with pregnant=0 removes the pregnant subtree") {
    val pruned = ModelPruner.pruneTree(TestModels.handTree, Map(1 -> FeatureConstraint.equalTo(0.0)))
    assert(pruned.nodeCount < TestModels.handTree.nodeCount)
    assert(!pruned.usedFeatures.contains(8)) // bp no longer used
    assert(pruned.usedFeatures.contains(0))  // still splits on age
  }

  test("pruning with pregnant=1 keeps bp splits, drops the non-pregnant branch") {
    val pruned = ModelPruner.pruneTree(TestModels.handTree, Map(1 -> FeatureConstraint.equalTo(1.0)))
    assert(pruned.usedFeatures.contains(8))
    assert(pruned.nodeCount == 5) // bp split, age split, 3 leaves — the non-pregnant branch is gone
  }

  test("forest pruning prunes every tree") {
    val forest = RandomForestModel(IndexedSeq(TestModels.handTree, TestModels.handTree), isClassifier = false)
    val pruned = ModelPruner.pruneForest(forest, Map(1 -> FeatureConstraint.equalTo(0.0)))
    assert(pruned.totalNodes < forest.totalNodes)
  }

  test("linear pruning folds pinned features into the intercept") {
    val m = LinearModel(Array(2.0, 3.0, -1.0), 0.5, logistic = false)
    val pruned = ModelPruner.pruneLinear(m, Map(1 -> FeatureConstraint.equalTo(4.0)))
    assert(pruned.weights.toSeq == Seq(2.0, 0.0, -1.0))
    assert(pruned.intercept == 0.5 + 12.0)
    // equivalence on satisfying inputs
    for (_ <- 1 to 20) {
      val x = Array(rnd.nextGaussian(), 4.0, rnd.nextGaussian())
      assert(math.abs(m.predict(x) - pruned.predict(x)) < 1e-12)
    }
  }

  test("linear pruning ignores range (non-pinning) constraints") {
    val m = LinearModel(Array(2.0), 0.0, logistic = false)
    val pruned = ModelPruner.pruneLinear(m, Map(0 -> FeatureConstraint.atLeast(1.0)))
    assert(pruned.weights.toSeq == Seq(2.0))
  }

  test("toFeatureConstraints maps numeric and categorical predicates through the pipeline") {
    val pipe = FlightData.pipeline
    val cs = ModelPruner.toFeatureConstraints(pipe, Seq(
      NumRange("distance", FeatureConstraint.atLeast(500.0)),
      CatEquals("dest", "AP03"),
    ))
    assert(cs(pipe.numericIndex("distance")).lo == 500.0)
    val (off, enc) = pipe.encoderBlock("dest")
    val hit = enc.indexOf("AP03")
    assert(cs(off + hit).equalTo.contains(1.0))
    assert(cs(off + (if (hit == 0) 1 else 0)).equalTo.contains(0.0))
    assert(cs.size == 1 + enc.width)
  }

  test("toFeatureConstraints with unseen category pins the whole block to zero") {
    val pipe = FlightData.pipeline
    val cs = ModelPruner.toFeatureConstraints(pipe, Seq(CatEquals("dest", "NOPE")))
    val (off, enc) = pipe.encoderBlock("dest")
    (0 until enc.width).foreach(i => assert(cs(off + i).equalTo.contains(0.0)))
  }

  test("toFeatureConstraints ignores predicates on non-model columns") {
    val cs = ModelPruner.toFeatureConstraints(FlightData.pipeline,
      Seq(NumRange("flight_id", FeatureConstraint.atLeast(5))))
    assert(cs.isEmpty)
  }

  test("projectPipeline drops raw columns the model no longer uses") {
    // model uses only age (f0) and bp (f8)
    val tree = DecisionTreeModel(
      Split(0, 40.0, Leaf(1.0), Split(8, 130.0, Leaf(2.0), Leaf(3.0))),
      HospitalData.pipeline.numFeatures, isClassifier = false)
    val (newPipe, newModel, dropped) = ModelPruner.projectPipeline(HospitalData.pipeline, tree)
    assert(newPipe.inputCols == Seq("age", "bp"))
    assert(dropped.size == HospitalData.pipeline.inputCols.size - 2)
    // equivalence through the projected space
    for (_ <- 1 to 50) {
      val j = HospitalData.joinedRow(rnd.nextInt(10000).toLong)
      val full = HospitalData.pipeline.transform(HospitalData.rawValues(j))
      val compact = newPipe.transform(IndexedSeq(j.age, j.bp))
      assert(tree.predict(full) == newModel.predict(compact))
    }
  }

  test("projectPipeline on a linear model keeps only non-zero-weight columns") {
    val pipe = FeaturePipeline(Seq("a", "b"), Seq(OneHotEncoder("c", IndexedSeq("x", "y"))))
    val m = LinearModel(Array(1.0, 0.0, 0.0, 2.0), 0.0, logistic = false)
    val (newPipe, newModel, dropped) = ModelPruner.projectPipeline(pipe, m)
    assert(dropped == Seq("b"))
    assert(newPipe.inputCols == Seq("a", "c"))
    // category x of c is never read: only c=y stays
    assert(newPipe.featureNames == IndexedSeq("a", "c=y"))
    assert(newModel.numFeatures == 2)
  }

  test("reindex rejects models using dropped features") {
    val m = LinearModel(Array(1.0, 1.0), 0.0, logistic = false)
    assertThrows[IllegalArgumentException](ModelPruner.reindex(m, IndexedSeq(0), 2))
  }

  test("pipeline optimizeFor chains pruning and projection (flight LR + dest filter)") {
    val mp = TestModels.flightLrPipeline
    val (optimized, dropped) = mp.optimizeFor(Seq(CatEquals("dest", "AP00")))
    assert(dropped.contains("dest"))
    assert(optimized.pipeline.numFeatures < mp.pipeline.numFeatures)
    // equivalence on rows satisfying dest = AP00
    val rows = TestModels.flightRows.filter(_.dest == "AP00").take(50)
    assert(rows.nonEmpty)
    rows.foreach { f =>
      val full = mp.predictRaw(FlightData.rawValues(f))
      val reduced = optimized.predictRaw(optimized.inputCols.map(c => rawValue(f, c)).toIndexedSeq)
      assert(math.abs(full - reduced) < 1e-9, s"row ${f.flight_id}")
    }
  }

  private def rawValue(f: FlightData.Flight, col: String): Any = col match {
    case "month" => f.month; case "day_of_week" => f.day_of_week; case "dep_hour" => f.dep_hour
    case "distance" => f.distance; case "airline" => f.airline; case "origin" => f.origin
    case "dest" => f.dest
    case other => throw new IllegalArgumentException(other)
  }
}
