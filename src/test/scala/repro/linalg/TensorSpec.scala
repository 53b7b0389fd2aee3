package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSyntax._

class TensorSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(1234)

  private def randTensor(rows: Int, cols: Int): Tensor =
    new Tensor(rows, cols, Array.fill(rows * cols)((rnd.nextFloat() - 0.5f) * 10f))

  private def naiveMatmul(a: Tensor, b: Tensor): Tensor = {
    val out = Tensor.zeros(a.rows, b.cols)
    for (i <- 0 until a.rows; j <- 0 until b.cols) {
      var s = 0f
      for (k <- 0 until a.cols) s += a(i, k) * b(k, j)
      out(i, j) = s
    }
    out
  }

  test("shape validation rejects mismatched data length") {
    assertThrows[IllegalArgumentException](new Tensor(2, 3, new Array[Float](5)))
  }

  test("apply/update are row-major") {
    val t = Tensor.zeros(2, 3)
    t(1, 2) = 7f
    assert(t.data(5) == 7f)
    assert(t(1, 2) == 7f)
  }

  test("matmul matches naive implementation on random shapes") {
    for (_ <- 1 to 25) {
      val m = 1 + rnd.nextInt(12); val k = 1 + rnd.nextInt(12); val n = 1 + rnd.nextInt(12)
      val a = randTensor(m, k); val b = randTensor(k, n)
      assert(a.matmul(b).approxEquals(naiveMatmul(a, b), 1e-2f), s"shapes ($m,$k)x($k,$n)")
    }
  }

  test("parallel matmul equals serial matmul") {
    for (_ <- 1 to 5) {
      val a = randTensor(67 + rnd.nextInt(80), 9)
      val b = randTensor(9, 5)
      assert(a.matmul(b, parallelism = 4).approxEquals(a.matmul(b), 0f))
    }
  }

  test("matmul shape mismatch throws") {
    assertThrows[IllegalArgumentException](Tensor.zeros(2, 3).matmul(Tensor.zeros(4, 2)))
  }

  test("add broadcasts a single row") {
    val a = Tensor.ofRows(Array(Array(1f, 2f), Array(3f, 4f)))
    val b = Tensor.row(10f, 20f)
    assert(a.add(b).toArray2.map(_.toSeq).toSeq == Seq(Seq(11f, 22f), Seq(13f, 24f)))
  }

  test("add elementwise with equal shapes") {
    val a = Tensor.ofRows(Array(Array(1f, 2f), Array(3f, 4f)))
    assert(a.add(a).toArray2.map(_.toSeq).toSeq == Seq(Seq(2f, 4f), Seq(6f, 8f)))
  }

  test("add rejects incompatible shapes") {
    assertThrows[IllegalArgumentException](Tensor.zeros(2, 3).add(Tensor.zeros(2, 2)))
    assertThrows[IllegalArgumentException](Tensor.zeros(4, 3).add(Tensor.zeros(2, 3)))
  }

  test("sub and mul") {
    val a = Tensor.row(5f, 6f)
    assert(a.sub(Tensor.row(1f, 2f)).data.toSeq == Seq(4f, 4f))
    assert(a.mul(Tensor.row(2f, 0.5f)).data.toSeq == Seq(10f, 3f))
  }

  test("lt produces 0/1 indicators") {
    val a = Tensor.ofRows(Array(Array(1f, 5f), Array(3f, 2f)))
    val b = Tensor.row(2f, 3f)
    assert(a.lt(b).data.toSeq == Seq(1f, 0f, 0f, 1f))
  }

  test("eq0 semantics") {
    val a = Tensor.row(1f, 2f, 3f)
    val b = Tensor.row(2f, 2f, 2f)
    assert(a.eq0(b).data.toSeq == Seq(0f, 1f, 0f))
  }

  test("map and scale") {
    val a = Tensor.row(-1f, 2f)
    assert(a.map(math.abs).data.toSeq == Seq(1f, 2f))
    assert(a.scale(3f).data.toSeq == Seq(-3f, 6f))
  }

  test("concat joins columns in order") {
    val a = Tensor.ofRows(Array(Array(1f), Array(2f)))
    val b = Tensor.ofRows(Array(Array(3f, 4f), Array(5f, 6f)))
    val c = a.concat(b)
    assert(c.rows == 2 && c.cols == 3)
    assert(c.toArray2.map(_.toSeq).toSeq == Seq(Seq(1f, 3f, 4f), Seq(2f, 5f, 6f)))
  }

  test("concat rejects differing row counts") {
    assertThrows[IllegalArgumentException](Tensor.zeros(2, 1).concat(Tensor.zeros(3, 1)))
  }

  test("ofRows rejects ragged input") {
    assertThrows[IllegalArgumentException](Tensor.ofRows(Array(Array(1f), Array(1f, 2f))))
  }

  test("ofDoubleRows converts") {
    val t = Tensor.ofDoubleRows(Array(Array(1.5, 2.5)))
    assert(t.data.toSeq == Seq(1.5f, 2.5f))
  }

  test("approxEquals tolerance and shape checks") {
    val a = Tensor.row(1f, 2f)
    val b = Tensor.row(1.00001f, 2f)
    assert(a.approxEquals(b, 1e-3f))
    assert(!a.approxEquals(b, 1e-7f))
    assert(!a.approxEquals(Tensor.row(1f), 1f))
  }

  test("zeros/fill/col constructors") {
    assert(Tensor.zeros(3, 2).data.forall(_ == 0f))
    assert(Tensor.fill(2, 2)(3f).data.forall(_ == 3f))
    val c = Tensor.col(1f, 2f, 3f)
    assert(c.rows == 3 && c.cols == 1)
  }

  test("sparse-aware matmul handles zero rows") {
    val a = Tensor.ofRows(Array(Array(0f, 0f), Array(1f, 2f)))
    val b = Tensor.ofRows(Array(Array(3f, 0f), Array(0f, 4f)))
    assert(a.matmul(b).toArray2.map(_.toSeq).toSeq == Seq(Seq(0f, 0f), Seq(3f, 8f)))
  }
}
