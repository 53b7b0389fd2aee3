package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class LinearModelSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(17)

  test("logistic training separates linearly separable data") {
    val x = Array.fill(1500)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val y = x.map(r => if (2 * r(0) - r(1) > 0) 1.0 else 0.0)
    val m = LinearModel.train(x, y, logistic = true, epochs = 200, lr = 0.8)
    val acc = x.zip(y).count { case (r, l) => (m.predict(r) >= 0.5) == (l >= 0.5) }.toDouble / x.length
    assert(acc > 0.97, s"accuracy $acc")
  }

  test("linear regression recovers planted weights") {
    val x = Array.fill(2000)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val y = x.map(r => 3.0 * r(0) - 2.0 * r(1) + 1.0)
    val m = LinearModel.train(x, y, logistic = false, epochs = 400, lr = 0.3)
    assert(math.abs(m.weights(0) - 3.0) < 0.05)
    assert(math.abs(m.weights(1) + 2.0) < 0.05)
    assert(math.abs(m.intercept - 1.0) < 0.05)
  }

  test("L1 regularization produces sparser weights as strength grows") {
    // 10 informative of 40 features
    val d = 40
    val x = Array.fill(1200)(Array.fill(d)(rnd.nextGaussian()))
    val y = x.map(r => if ((0 until 10).map(i => r(i)).sum > 0) 1.0 else 0.0)
    val weak = LinearModel.train(x, y, logistic = true, l1 = 0.0005, epochs = 150)
    val strong = LinearModel.train(x, y, logistic = true, l1 = 0.02, epochs = 150)
    assert(strong.sparsity > weak.sparsity,
      s"weak=${weak.sparsity} strong=${strong.sparsity}")
    assert(strong.sparsity > 0.4, s"strong sparsity ${strong.sparsity}")
  }

  test("sparsify hits the target sparsity on the smallest weights") {
    val m = LinearModel(Array(0.5, -0.01, 3.0, 0.002, -1.0), 0.1, logistic = false)
    val s = m.sparsify(0.4)
    assert(s.sparsity >= 0.4)
    assert(s.weights(2) == 3.0 && s.weights(4) == -1.0) // largest magnitudes survive
    assert(s.weights(1) == 0.0 && s.weights(3) == 0.0)
  }

  test("projectNonZero drops zero weights and preserves predictions") {
    val m = LinearModel(Array(1.0, 0.0, -2.0, 0.0), 0.5, logistic = true)
    val (pipe, proj, dropped) = ModelPruner.projectPipeline(FeaturePipeline(Seq("a", "b", "c", "d"), Nil), m)
    assert(pipe.inputCols == Seq("a", "c") && dropped == Seq("b", "d"))
    assert(proj.numFeatures == 2)
    for (_ <- 1 to 20) {
      val x = Array.fill(4)(rnd.nextGaussian())
      assert(math.abs(m.predict(x) - proj.predict(Array(x(0), x(2)))) < 1e-12)
    }
  }

  test("a zero weight reads nothing, not even a NaN or infinite feature") {
    val m = LinearModel(Array(1.0, 0.0), 0.5, logistic = false)
    for (v <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity))
      assert(m.predict(Array(2.0, v)) == 2.5)
  }

  test("usedFeatures excludes zero weights") {
    val m = LinearModel(Array(1.0, 0.0, -2.0), 0.0, logistic = false)
    assert(m.usedFeatures == Set(0, 2))
  }

  test("predict arity check") {
    val m = LinearModel(Array(1.0, 2.0), 0.0, logistic = false)
    assertThrows[IllegalArgumentException](m.predict(Array(1.0)))
  }

  test("logistic output bounded in (0,1)") {
    val m = LinearModel(Array(100.0), 0.0, logistic = true)
    assert(m.predict(Array(10.0)) <= 1.0 && m.predict(Array(10.0)) > 0.99)
    assert(m.predict(Array(-10.0)) >= 0.0 && m.predict(Array(-10.0)) < 0.01)
  }
}
