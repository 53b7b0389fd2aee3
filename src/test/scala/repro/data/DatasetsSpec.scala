package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.{SparkSpec, TestTables}

class DatasetsSpec extends AnyFunSuite with SparkSpec {

  test("hospital generator is deterministic") {
    val a = HospitalData.joinedRow(42)
    val b = HospitalData.joinedRow(42)
    assert(a == b)
    assert(HospitalData.joinedRow(43) != a)
  }

  test("hospital invariants: pregnancy only for women under 50, prenatal zeros otherwise") {
    HospitalData.localJoined(2000).foreach { j =>
      if (j.pregnant == 1) {
        assert(j.gender == "F" && j.age < 50)
        assert(j.gestation_weeks > 0)
      } else {
        assert(j.fetal_hr == 0.0 && j.gestation_weeks == 0.0)
      }
      assert(j.lengthofstay >= 0.0)
    }
  }

  test("hospital planted signal: pregnant high-bp patients stay longer") {
    val rows = HospitalData.localJoined(8000)
    val highRisk = rows.filter(j => j.pregnant == 1 && j.bp > 140).map(_.lengthofstay)
    val rest = rows.filter(j => j.pregnant == 0).map(_.lengthofstay)
    assert(highRisk.nonEmpty)
    assert(highRisk.sum / highRisk.length > rest.sum / rest.length + 3.0)
  }

  test("hospital Spark tables match the local generator") {
    val df = HospitalData.joinedDf(spark, 100).collect()
    val local = HospitalData.localJoined(100)
    assert(df.length == 100)
    val byId = df.map(r => r.getAs[Long]("patient_id") -> r).toMap
    local.foreach { j =>
      val r = byId(j.patient_id)
      assert(r.getAs[Int]("age") == j.age)
      assert(r.getAs[String]("gender") == j.gender)
      assert(math.abs(r.getAs[Double]("bp") - j.bp) < 1e-12)
    }
  }

  test("hospital table shredding is key-consistent") {
    val p = HospitalData.patientInfo(spark, 50).collect().map(_.getAs[Long]("patient_id")).sorted
    val b = HospitalData.bloodTests(spark, 50).collect().map(_.getAs[Long]("patient_id")).sorted
    val t = HospitalData.prenatalTests(spark, 50).collect().map(_.getAs[Long]("patient_id")).sorted
    assert(p.toSeq == b.toSeq && b.toSeq == t.toSeq)
  }

  test("hospital featurization matches the pipeline layout") {
    val rows = HospitalData.localJoined(10)
    val (x, y) = HospitalData.featurized(rows)
    assert(x.head.length == HospitalData.pipeline.numFeatures)
    assert(y.length == 10)
    assert(x(0)(0) == rows(0).age.toDouble)
    val genderF = HospitalData.pipeline.featureNames.indexOf("gender=F")
    rows.zip(x).foreach { case (j, f) => assert(f(genderF) == (if (j.gender == "F") 1.0 else 0.0)) }
  }

  test("flight generator is deterministic and categorical values are in-vocab") {
    assert(FlightData.flightRow(7) == FlightData.flightRow(7))
    FlightData.localFlights(2000).foreach { f =>
      assert(FlightData.airlines.contains(f.airline))
      assert(FlightData.airports.contains(f.origin))
      assert(FlightData.airports.contains(f.dest))
      assert(f.month >= 1 && f.month <= 12)
      assert(f.delayed == 0 || f.delayed == 1)
    }
  }

  test("flight categorical distribution is skewed (zipf-ish)") {
    val rows = FlightData.localFlights(20000)
    val counts = rows.groupBy(_.origin).view.mapValues(_.length).toMap
    val top = counts("AP00")
    assert(top > rows.length / 20, s"AP00 count $top")
    assert(counts.getOrElse("AP99", 0) < top / 4)
  }

  test("flight planted signal: evening departures delayed more often") {
    val rows = FlightData.localFlights(30000)
    val evening = rows.filter(_.dep_hour >= 17)
    val morning = rows.filter(_.dep_hour < 12)
    def rate(xs: Array[FlightData.Flight]) = xs.count(_.delayed == 1).toDouble / xs.length
    assert(rate(evening) > rate(morning) + 0.1)
  }

  test("flight delay rate is balanced enough to learn from") {
    val rows = FlightData.localFlights(20000)
    val rate = rows.count(_.delayed == 1).toDouble / rows.length
    assert(rate > 0.15 && rate < 0.85, s"delay rate $rate")
  }

  test("flight Spark DataFrame matches local rows") {
    val df = TestTables.flightsDf(spark, 50).collect()
    val local = FlightData.localFlights(50)
    val byId = df.map(r => r.getAs[Long]("flight_id") -> r).toMap
    local.foreach { f =>
      val r = byId(f.flight_id)
      assert(r.getAs[String]("dest") == f.dest)
      assert(r.getAs[Int]("dep_hour") == f.dep_hour)
    }
  }

  test("flight featurization width is 218") {
    assert(FlightData.pipeline.numFeatures == 4 + 14 + 100 + 100)
    val (x, _) = FlightData.featurized(FlightData.localFlights(5))
    assert(x.head.length == 218)
  }
}
