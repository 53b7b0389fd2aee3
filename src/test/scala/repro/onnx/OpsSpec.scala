package repro.onnx

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Tensor

class OpsSpec extends AnyFunSuite {

  private def run(op: String, inputs: Tensor*): Tensor =
    Ops.execute(NodeDef(op, inputs.indices.map(i => s"i$i"), "out"), inputs)

  test("MatMul") {
    val a = Tensor.ofRows(Array(Array(1f, 2f)))
    val b = Tensor.ofRows(Array(Array(3f), Array(4f)))
    assert(run("MatMul", a, b).data.toSeq == Seq(11f))
  }

  test("Add/Sub/Mul") {
    val a = Tensor.row(1f, 2f)
    val b = Tensor.row(3f, 5f)
    assert(run("Add", a, b).data.toSeq == Seq(4f, 7f))
    assert(run("Sub", a, b).data.toSeq == Seq(-2f, -3f))
    assert(run("Mul", a, b).data.toSeq == Seq(3f, 10f))
  }

  test("comparisons") {
    val a = Tensor.row(1f, 2f, 3f)
    val b = Tensor.row(2f, 2f, 2f)
    assert(run("Less", a, b).data.toSeq == Seq(1f, 0f, 0f))
    assert(run("Equal", a, b).data.toSeq == Seq(0f, 1f, 0f))
  }

  test("activations") {
    val a = Tensor.row(0f, -1f, 1f)
    val sig = run("Sigmoid", a).data
    assert(math.abs(sig(0) - 0.5f) < 1e-6)
    assert(sig(1) < 0.5f && sig(2) > 0.5f)
    assert(run("Relu", a).data.toSeq == Seq(0f, 0f, 1f))
    val tanh = run("Tanh", a).data
    assert(math.abs(tanh(0)) < 1e-6 && tanh(1) < 0 && tanh(2) > 0)
  }

  test("Scale uses the scale attribute") {
    val n = NodeDef("Scale", Seq("x"), "out", Map("scale" -> 0.5f))
    assert(Ops.execute(n, Seq(Tensor.row(2f, 4f))).data.toSeq == Seq(1f, 2f))
  }

  test("Scale without attribute throws") {
    assertThrows[IllegalArgumentException](run("Scale", Tensor.row(1f)))
  }

  test("Sum over multiple inputs") {
    val n = NodeDef("Sum", Seq("a", "b", "c"), "out")
    val t = Tensor.row(1f)
    assert(Ops.execute(n, Seq(t, t, t)).data.toSeq == Seq(3f))
  }

  test("Concat") {
    val a = Tensor.col(1f, 2f)
    val b = Tensor.ofRows(Array(Array(3f, 4f), Array(5f, 6f)))
    val n = NodeDef("Concat", Seq("a", "b"), "out")
    assert(Ops.execute(n, Seq(a, b)).toArray2.map(_.toSeq).toSeq ==
      Seq(Seq(1f, 3f, 4f), Seq(2f, 5f, 6f)))
  }

  test("OneHot encodes indices, out-of-range to zeros") {
    val idx = Tensor.col(0f, 2f, -1f, 5f)
    val n = NodeDef("OneHot", Seq("x"), "out", Map("depth" -> 3f))
    val out = Ops.execute(n, Seq(idx))
    assert(out.rows == 4 && out.cols == 3)
    assert(out.toArray2.map(_.toSeq).toSeq == Seq(
      Seq(1f, 0f, 0f), Seq(0f, 0f, 1f), Seq(0f, 0f, 0f), Seq(0f, 0f, 0f)))
  }

  test("OneHot rejects multi-column input") {
    val n = NodeDef("OneHot", Seq("x"), "out", Map("depth" -> 3f))
    assertThrows[IllegalArgumentException](Ops.execute(n, Seq(Tensor.zeros(2, 2))))
  }

  test("wrong arity throws") {
    assertThrows[IllegalArgumentException](run("Add", Tensor.row(1f)))
    assertThrows[IllegalArgumentException](run("Sigmoid", Tensor.row(1f), Tensor.row(1f)))
  }

  test("unsupported op throws") {
    assertThrows[IllegalArgumentException](run("Conv2D", Tensor.row(1f)))
  }
}
