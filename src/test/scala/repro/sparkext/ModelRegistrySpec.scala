package repro.sparkext

import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import repro.TestModels
import repro.ml._

class ModelRegistrySpec extends AnyFunSuite {

  test("deploy and get") {
    val mp = TestModels.handTreePipeline.copy(id = "reg_test_1")
    ModelRegistry.deploy(mp)
    assert(ModelRegistry.contains("reg_test_1"))
    assert(ModelRegistry.get("reg_test_1").id == "reg_test_1")
    assertThrows[IllegalArgumentException](ModelRegistry.get("reg_test_missing"))
  }

  test("deriveFor memoizes by root model and canonical predicate set") {
    val mp = TestModels.handTreePipeline.copy(id = "reg_test_2")
    ModelRegistry.deploy(mp)
    val preds = Seq(NumRange("pregnant", FeatureConstraint.equalTo(1.0)),
      NumRange("age", FeatureConstraint.atLeast(35.0)))
    val id1 = ModelRegistry.deriveFor("reg_test_2", preds)
    val id2 = ModelRegistry.deriveFor("reg_test_2", preds.reverse) // order-insensitive
    assert(id1 == id2)
    assert(id1 != "reg_test_2")
    assert(ModelRegistry.rootOf(id1) == "reg_test_2")
    // deriving from the derived id with identical predicates is a fixpoint
    assert(ModelRegistry.deriveFor(id1, preds) == id1)
  }

  test("derived model is genuinely specialized") {
    val mp = TestModels.handTreePipeline.copy(id = "reg_test_3")
    ModelRegistry.deploy(mp)
    val id = ModelRegistry.deriveFor("reg_test_3", Seq(NumRange("pregnant", FeatureConstraint.equalTo(0.0))))
    val derived = ModelRegistry.get(id)
    assert(derived.model.asInstanceOf[DecisionTreeModel].nodeCount <
      mp.model.asInstanceOf[DecisionTreeModel].nodeCount)
    assert(!derived.inputCols.contains("bp")) // projection dropped the dead columns
  }

  test("empty predicate derivation with nothing to project returns the same id") {
    // a model using every feature: projection drops nothing
    val dense = LinearModel(Array.fill(repro.data.HospitalData.pipeline.numFeatures)(1.0), 0.0, logistic = false)
    val mp = ModelPipeline("reg_test_4", repro.data.HospitalData.pipeline, None, dense)
    ModelRegistry.deploy(mp)
    val id = ModelRegistry.deriveFor("reg_test_4", Nil)
    // pipeline unchanged → derived variant equals the original semantically;
    // the registry may still mint an id, but it must be stable
    assert(ModelRegistry.deriveFor("reg_test_4", Nil) == id)
  }

  test("predicate sets whose strings share a hash code derive distinct variants") {
    // "Aa" and "BB" have the same String.hashCode
    val pipe = FeaturePipeline(Nil, Seq(OneHotEncoder("c", IndexedSeq("Aa", "BB"))))
    ModelRegistry.deploy(ModelPipeline("reg_test_6", pipe, None, LinearModel(Array(1.0, 2.0), 0.0, logistic = false)))
    val aa = ModelRegistry.deriveFor("reg_test_6", Seq(CatEquals("c", "Aa")))
    val bb = ModelRegistry.deriveFor("reg_test_6", Seq(CatEquals("c", "BB")))
    assert(aa != bb)
    assert(ModelRegistry.get(aa).model.asInstanceOf[LinearModel].intercept == 1.0)
    assert(ModelRegistry.get(bb).model.asInstanceOf[LinearModel].intercept == 2.0)
  }

  test("redeploying the same instance keeps its variants; another pipeline drops them") {
    val mp = TestModels.handTreePipeline.copy(id = "reg_test_7")
    val preds = Seq(NumRange("pregnant", FeatureConstraint.equalTo(0.0)))
    ModelRegistry.deploy(mp)
    val v = ModelRegistry.deriveFor("reg_test_7", preds)
    ModelRegistry.deploy(mp)
    assert(ModelRegistry.deriveFor("reg_test_7", preds) == v)
    ModelRegistry.deploy(mp.copy())
    assert(!ModelRegistry.contains(v))
    assert(ModelRegistry.deriveFor("reg_test_7", preds) != v)
  }

  test("a variant specialized again derives from the root under both predicate sets") {
    val mp = TestModels.handTreePipeline.copy(id = "reg_test_8")
    ModelRegistry.deploy(mp)
    val pregnant = Seq(NumRange("pregnant", FeatureConstraint.equalTo(1.0)))
    val projected = ModelRegistry.deriveFor("reg_test_8", Nil)
    val pruned = ModelRegistry.deriveFor(projected, pregnant)
    assert(pruned == ModelRegistry.deriveFor("reg_test_8", pregnant))
    // projecting the pruned variant is a no-op, not the root's projection
    assert(ModelRegistry.deriveFor(pruned, Nil) == pruned)
    assert(ModelRegistry.get(pruned).model.asInstanceOf[DecisionTreeModel].nodeCount == 5)
  }

  test("pipelines with a scaler are not specialized") {
    val mp = TestModels.hospitalMlpPipeline.copy(id = "reg_test_9")
    ModelRegistry.deploy(mp)
    assert(ModelRegistry.deriveFor("reg_test_9", Seq(NumRange("age", FeatureConstraint.atLeast(35)))) == "reg_test_9")
  }

  test("save/load roundtrip preserves the pipeline") {
    val mp = TestModels.flightLrPipeline.copy(id = "reg_test_5")
    val f = Files.createTempFile("pipeline", ".bin")
    ModelRegistry.save(mp, f)
    val back = ModelRegistry.load(f)
    assert(back.id == "reg_test_5")
    assert(back.inputCols == mp.inputCols)
    val row = repro.data.FlightData.rawValues(TestModels.flightRows(0))
    assert(back.predictRaw(row) == mp.predictRaw(row))
    Files.delete(f)
  }
}
