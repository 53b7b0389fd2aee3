package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class FeaturizeSpec extends AnyFunSuite {

  private val pipe = FeaturePipeline(
    numericCols = Seq("age", "bp"),
    encoders = Seq(
      OneHotEncoder("gender", IndexedSeq("F", "M")),
      OneHotEncoder("city", IndexedSeq("NY", "SF", "LA")),
    ),
  )

  test("layout: numerics first, then one-hot blocks") {
    assert(pipe.numFeatures == 2 + 2 + 3)
    assert(pipe.featureNames == IndexedSeq("age", "bp", "gender=F", "gender=M", "city=NY", "city=SF", "city=LA"))
    assert(pipe.inputCols == Seq("age", "bp", "gender", "city"))
  }

  test("transform encodes a raw row") {
    val v = pipe.transform(IndexedSeq(40, 120.5, "F", "SF"))
    assert(v.toSeq == Seq(40.0, 120.5, 1.0, 0.0, 0.0, 1.0, 0.0))
  }

  test("unknown category encodes to zeros") {
    val v = pipe.transform(IndexedSeq(40, 120.0, "X", "TOKYO"))
    assert(v.toSeq == Seq(40.0, 120.0, 0.0, 0.0, 0.0, 0.0, 0.0))
  }

  test("transform arity check") {
    assertThrows[IllegalArgumentException](pipe.transform(IndexedSeq(40, 120.0, "F")))
  }

  test("numericIndex and encoderBlock") {
    assert(pipe.numericIndex("bp") == 1)
    assertThrows[IllegalArgumentException](pipe.numericIndex("gender"))
    val (off, enc) = pipe.encoderBlock("city")
    assert(off == 4 && enc.categories == IndexedSeq("NY", "SF", "LA"))
    assertThrows[IllegalArgumentException](pipe.encoderBlock("age"))
  }

  test("sourceColumn maps feature indices back to raw columns") {
    def source(f: Int): Seq[String] = pipe.project(Set(f)).inputCols
    assert(source(0) == Seq("age"))
    assert(source(2) == Seq("gender"))
    assert(source(3) == Seq("gender"))
    assert(source(6) == Seq("city"))
    assertThrows[IllegalArgumentException](source(7))
  }

  test("toGraphFeeds gives numeric passthrough + vocab indices") {
    val v = pipe.toGraphFeeds(IndexedSeq(40, 120.0, "M", "LA"))
    assert(v.toSeq == Seq(40.0, 120.0, 1.0, 2.0))
    val unk = pipe.toGraphFeeds(IndexedSeq(40, 120.0, "zz", "LA"))
    assert(unk(2) == -1.0)
  }

  test("project keeps a column subset") {
    val p2 = pipe.project(Set(0, 4, 5, 6))
    assert(p2.numericCols == Seq("age"))
    assert(p2.encoders.map(_.inputCol) == Seq("city"))
    assert(p2.numFeatures == 4)
  }

  test("project keeps single categories; a dropped one encodes as unseen") {
    val p2 = pipe.project(Set(1, 3, 5))
    assert(p2.inputCols == Seq("bp", "gender", "city"))
    assert(p2.featureNames == IndexedSeq("bp", "gender=M", "city=SF"))
    assert(p2.transform(IndexedSeq(120.0, "F", "SF")).toSeq == Seq(120.0, 0.0, 1.0))
    assert(p2.transform(IndexedSeq(120.0, "M", "NY")).toSeq == Seq(120.0, 1.0, 0.0))
  }

  test("boolean and numeric conversions") {
    val p = FeaturePipeline(Seq("a", "b", "c", "d"), Nil)
    val v = p.transform(IndexedSeq(true, 2L, 3.5f, null))
    assert(v.toSeq == Seq(1.0, 2.0, 3.5, 0.0))
  }

  test("duplicate categories rejected") {
    assertThrows[IllegalArgumentException](OneHotEncoder("x", IndexedSeq("a", "a")))
  }

  test("StandardScaler normalizes to ~zero mean unit variance") {
    val rnd = new scala.util.Random(5)
    val rows = Array.fill(500)(Array(rnd.nextGaussian() * 3 + 10, rnd.nextGaussian() * 0.5 - 2))
    val sc = StandardScaler.fit(rows)
    val transformed = rows.map(sc.transform)
    val means = transformed.transpose.map(c => c.sum / c.length)
    val vars = transformed.transpose.map(c => c.map(v => v * v).sum / c.length)
    means.foreach(m => assert(math.abs(m) < 1e-9))
    vars.foreach(v => assert(math.abs(v - 1.0) < 1e-9))
  }

  test("StandardScaler guards zero variance") {
    val sc = StandardScaler.fit(Array(Array(5.0), Array(5.0)))
    assert(!sc.transform(Array(5.0))(0).isNaN)
  }
}
