package repro

import repro.data.{FlightData, HospitalData}
import repro.ml._

/** Shared trained models for tests — lazily trained once per JVM on small
  * deterministic samples of the synthetic datasets.
  */
object TestModels {

  // ---- hospital (length-of-stay regression) -------------------------------

  lazy val hospitalRows: Array[HospitalData.Joined] = HospitalData.localJoined(4000)
  lazy val (hospitalX, hospitalY) = HospitalData.featurized(hospitalRows)

  lazy val hospitalTree: DecisionTreeModel =
    DecisionTree.train(hospitalX, hospitalY, isClassifier = false, maxDepth = 6, minSamplesLeaf = 20)

  lazy val hospitalTreePipeline: ModelPipeline =
    ModelPipeline("hospital_dt", HospitalData.pipeline, None, hospitalTree)

  lazy val hospitalForest: RandomForestModel =
    RandomForest.train(hospitalX, hospitalY, isClassifier = false, numTrees = 5, maxDepth = 5)

  lazy val hospitalForestPipeline: ModelPipeline =
    ModelPipeline("hospital_rf", HospitalData.pipeline, None, hospitalForest)

  /** The benchmark's forest shape: ten depth-5 trees (558 nodes). */
  lazy val hospitalForest10: RandomForestModel =
    RandomForest.train(hospitalX, hospitalY, isClassifier = false, numTrees = 10, maxDepth = 5, minSamplesLeaf = 5)

  lazy val hospitalForest10Pipeline: ModelPipeline =
    ModelPipeline("hospital_rf10", HospitalData.pipeline, None, hospitalForest10)

  /** Models whose literal generated code exceeds one method: a forest of
    * over 5 000 nodes and a tree of over 2 000 nodes, 15 levels deep.
    */
  lazy val hospitalForestLarge: ModelPipeline = ModelPipeline("hospital_rf_large", HospitalData.pipeline, None,
    RandomForest.train(hospitalX, hospitalY, isClassifier = false, numTrees = 10, maxDepth = 10, minSamplesLeaf = 2))

  lazy val hospitalTreeDeep: ModelPipeline = ModelPipeline("hospital_dt_deep", HospitalData.pipeline, None,
    DecisionTree.train(hospitalX, hospitalY, isClassifier = false, maxDepth = 14, minSamplesLeaf = 1))

  lazy val hospitalMlp: MlpModel = {
    val scaler = StandardScaler.fit(hospitalX)
    MlpModel.train(hospitalX.map(scaler.transform), hospitalY.map(v => if (v > 7) 1.0 else 0.0),
      hidden = Seq(16, 8), epochs = 2)
  }

  lazy val hospitalScaler: StandardScaler = StandardScaler.fit(hospitalX)

  lazy val hospitalMlpPipeline: ModelPipeline =
    ModelPipeline("hospital_mlp", HospitalData.pipeline, Some(hospitalScaler), hospitalMlp)

  // ---- flight (delay classification) --------------------------------------

  lazy val flightRows: Array[FlightData.Flight] = FlightData.localFlights(6000)
  lazy val (flightX, flightY) = FlightData.featurized(flightRows)

  lazy val flightLr: LinearModel =
    LinearModel.train(flightX, flightY, logistic = true, l1 = 0.0, epochs = 60, lr = 0.3)

  lazy val flightLrPipeline: ModelPipeline =
    ModelPipeline("flight_lr", FlightData.pipeline, None, flightLr)

  /** A hand-built tree over the hospital feature space with known shape:
    * splits on pregnant (idx 1), then age (idx 0) and bp (idx 8).
    */
  lazy val handTree: DecisionTreeModel = {
    val root = Split(1, 0.5, // pregnant < 0.5 ?
      Split(0, 35.0, Leaf(2.0), Leaf(4.0)),                 // not pregnant: age
      Split(8, 140.0, Leaf(5.0), Split(0, 35.0, Leaf(8.0), Leaf(10.0)))) // pregnant: bp then age
    DecisionTreeModel(root, HospitalData.pipeline.numFeatures, isClassifier = false)
  }

  lazy val handTreePipeline: ModelPipeline =
    ModelPipeline("hospital_hand_dt", HospitalData.pipeline, None, handTree)

  /** `model` behind a numeric-only pipeline over columns `f0..fn`, so that
    * its NN graph reads the features as raw columns.
    */
  def numericPipeline(id: String, model: Model): ModelPipeline =
    ModelPipeline(id, FeaturePipeline((0 until model.numFeatures).map(i => s"f$i"), Nil), None, model)

  /** Raw-row accessor matching pipeline input order. */
  def hospitalRaw(j: HospitalData.Joined): IndexedSeq[Any] = HospitalData.rawValues(j)
  def flightRaw(f: FlightData.Flight): IndexedSeq[Any] = FlightData.rawValues(f)
}
