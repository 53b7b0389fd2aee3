package repro.sparkext

import java.nio.file.Files
import org.apache.spark.sql.catalyst.analysis.UnresolvedAttribute
import org.scalatest.funsuite.AnyFunSuite
import repro.TestModels
import repro.ml._

/** The registry of deployed pipelines, and the variants
  * [[RavenRules.ModelSpecialization]] derives from them inside a plan.
  */
class ModelRegistrySpec extends AnyFunSuite {

  /** A predict of `mp` over its input columns, as a query resolves it. */
  private def predict(mp: ModelPipeline): PredictExpression =
    PredictExpression(mp, mp.inputCols.map(UnresolvedAttribute(_)))

  test("deploy and get") {
    val mp = TestModels.handTreePipeline.copy(id = "reg_test_1")
    ModelRegistry.deploy(mp)
    assert(ModelRegistry.contains("reg_test_1"))
    assert(ModelRegistry.get("reg_test_1").id == "reg_test_1")
    assertThrows[IllegalArgumentException](ModelRegistry.get("reg_test_missing"))
  }

  test("a variant's id names its root and canonical predicate set") {
    val mp = TestModels.handTreePipeline.copy(id = "reg_test_2")
    val preds = Seq(NumRange("pregnant", FeatureConstraint.equalTo(1.0)),
      NumRange("age", FeatureConstraint.atLeast(35.0)))
    val v1 = predict(mp).specializedFor(preds)
    val v2 = predict(mp).specializedFor(preds.reverse) // order-insensitive
    assert(v1.modelId == v2.modelId && v1.pipeline == v2.pipeline)
    assert(v1.modelId.startsWith("reg_test_2#"))
    assert(v1.derivation == Some(mp -> preds.toSet))
    // specializing the variant under the facts it holds returns it
    assert(v1.specializedFor(preds) eq v1)
    assert(v1.specializedFor(preds.take(1)) eq v1)
  }

  test("derived model is genuinely specialized") {
    val mp = TestModels.handTreePipeline.copy(id = "reg_test_3")
    val derived = predict(mp).specializedFor(Seq(NumRange("pregnant", FeatureConstraint.equalTo(0.0))))
    assert(derived.pipeline.model.asInstanceOf[DecisionTreeModel].nodeCount <
      mp.model.asInstanceOf[DecisionTreeModel].nodeCount)
    assert(!derived.pipeline.inputCols.contains("bp")) // projection dropped the dead columns
    assert(derived.children.map(_.asInstanceOf[UnresolvedAttribute].name) == derived.pipeline.inputCols)
  }

  test("empty predicate derivation with nothing to project returns the same id") {
    // a model using every feature: projection drops nothing
    val dense = LinearModel(Array.fill(repro.data.HospitalData.pipeline.numFeatures)(1.0), 0.0, logistic = false)
    val mp = ModelPipeline("reg_test_4", repro.data.HospitalData.pipeline, None, dense)
    val v = predict(mp).specializedFor(Nil)
    // pipeline unchanged → the variant equals the original semantically, under an id that is stable
    assert(v.pipeline.pipeline == mp.pipeline)
    assert(predict(mp).specializedFor(Nil).modelId == v.modelId)
    assert(v.specializedFor(Nil) eq v)
  }

  test("predicate sets whose strings share a hash code derive distinct variants") {
    // "Aa" and "BB" have the same String.hashCode
    val pipe = FeaturePipeline(Nil, Seq(OneHotEncoder("c", IndexedSeq("Aa", "BB"))))
    val mp = ModelPipeline("reg_test_6", pipe, None, LinearModel(Array(1.0, 2.0), 0.0, logistic = false))
    val aa = predict(mp).specializedFor(Seq(CatEquals("c", "Aa")))
    val bb = predict(mp).specializedFor(Seq(CatEquals("c", "BB")))
    assert(aa.modelId != bb.modelId)
    assert(aa.pipeline.model.asInstanceOf[LinearModel].intercept == 1.0)
    assert(bb.pipeline.model.asInstanceOf[LinearModel].intercept == 2.0)
  }

  test("a variant specialized again derives from the root under both predicate sets") {
    val mp = TestModels.handTreePipeline.copy(id = "reg_test_8")
    val pregnant = Seq(NumRange("pregnant", FeatureConstraint.equalTo(1.0)))
    val projected = predict(mp).specializedFor(Nil)
    val pruned = projected.specializedFor(pregnant)
    val direct = predict(mp).specializedFor(pregnant)
    assert(pruned.modelId == direct.modelId && pruned.pipeline == direct.pipeline)
    assert(pruned.derivation == Some(mp -> pregnant.toSet))
    // projecting the pruned variant is a no-op, not the root's projection
    assert(pruned.specializedFor(Nil) eq pruned)
    assert(pruned.pipeline.model.asInstanceOf[DecisionTreeModel].nodeCount == 5)
  }

  test("pipelines with a scaler are not specialized") {
    val p = predict(TestModels.hospitalMlpPipeline.copy(id = "reg_test_9"))
    assert(p.specializedFor(Seq(NumRange("age", FeatureConstraint.atLeast(35)))) eq p)
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
