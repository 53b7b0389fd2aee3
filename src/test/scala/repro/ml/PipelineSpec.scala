package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.TestModels
import repro.data.HospitalData

class PipelineSpec extends AnyFunSuite {

  test("ModelPipeline scores raw rows end to end") {
    val mp = TestModels.handTreePipeline
    val j = TestModels.hospitalRows(0)
    val feats = HospitalData.pipeline.transform(HospitalData.rawValues(j))
    assert(mp.predictRaw(HospitalData.rawValues(j)) == TestModels.handTree.predict(feats))
  }

  test("scaler is applied between featurization and the model") {
    val mp = TestModels.hospitalMlpPipeline
    val j = TestModels.hospitalRows(1)
    val feats = HospitalData.pipeline.transform(HospitalData.rawValues(j))
    val scaled = mp.scaler.get.transform(feats)
    assert(mp.predictRaw(HospitalData.rawValues(j)) == mp.model.predict(scaled))
  }

  test("optimizeFor refuses to prune through a scaler") {
    assertThrows[IllegalArgumentException] {
      TestModels.hospitalMlpPipeline.optimizeFor(Seq(NumRange("age", FeatureConstraint.atLeast(35))))
    }
  }

  test("predictRawBatch equals per-row scoring") {
    val mp = TestModels.flightLrPipeline
    val rows = TestModels.flightRows.take(20).map(repro.data.FlightData.rawValues).toIndexedSeq
    assert(mp.predictRawBatch(rows).toSeq == rows.map(mp.predictRaw))
  }

  /** `raw`, laid out in `pipe.inputCols`, restricted to the columns of `projected`. */
  private def restrict(pipe: FeaturePipeline, projected: FeaturePipeline, raw: IndexedSeq[Any]): IndexedSeq[Any] =
    projected.inputCols.map(c => raw(pipe.inputCols.indexOf(c))).toIndexedSeq

  test("CompactFeaturizer over all features matches the full pipeline") {
    val pipe = HospitalData.pipeline
    val all = pipe.project((0 until pipe.numFeatures).toSet)
    assert(all == pipe)
    TestModels.hospitalRows.take(50).foreach { j =>
      val raw = HospitalData.rawValues(j)
      assert(all.transform(restrict(pipe, all, raw)).toSeq == pipe.transform(raw).toSeq)
    }
  }

  test("CompactFeaturizer over a subset computes exactly those features") {
    val pipe = HospitalData.pipeline
    val ageIdx = pipe.numericIndex("age")
    val (gOff, gEnc) = pipe.encoderBlock("gender")
    val fIdx = gOff + gEnc.indexOf("F")
    val sub = pipe.project(Set(ageIdx, fIdx))
    assert(sub.inputCols == Seq("age", "gender"))
    TestModels.hospitalRows.take(50).foreach { j =>
      val raw = HospitalData.rawValues(j)
      val full = pipe.transform(raw)
      assert(sub.transform(restrict(pipe, sub, raw)).toSeq == Seq(full(ageIdx), full(fIdx)))
    }
  }

  test("CompactFeaturizer cost model: output width equals kept size") {
    val pipe = repro.data.FlightData.pipeline
    val sub = pipe.project(Set(0, 1, 5, 20, 130))
    assert(sub.numFeatures == 5)
    val raw = repro.data.FlightData.rawValues(TestModels.flightRows(0))
    assert(sub.transform(restrict(pipe, sub, raw)).length == 5)
  }

  test("scorerFor scores rows in the layout of the pipeline a variant was projected from") {
    val mp = TestModels.flightLrPipeline.copy(model = TestModels.flightLr.sparsify(0.8096))
    val projected = mp.optimizeFor(Nil)._1
    assert(projected.pipeline.numFeatures < mp.pipeline.numFeatures)
    val score = projected.scorerFor(mp.inputCols)
    TestModels.flightRows.take(200).map(repro.data.FlightData.rawValues).foreach { raw =>
      assert(score(raw) == mp.predictRaw(raw))
    }
    assertThrows[IllegalArgumentException](mp.scorerFor(mp.inputCols.filterNot(_ == "dest")))
  }
}
