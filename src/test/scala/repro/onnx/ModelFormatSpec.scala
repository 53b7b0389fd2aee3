package repro.onnx

import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import repro.TestSyntax._
import repro.linalg.Tensor

class ModelFormatSpec extends AnyFunSuite {

  private def graph: GraphDef = GraphDef(
    name = "roundtrip",
    inputs = Seq("X", "c"),
    output = "y",
    initializers = Map(
      "W" -> Tensor.ofRows(Array(Array(1.5f, -2f), Array(0f, 3f))),
      "b" -> Tensor.row(0.25f, -0.5f),
    ),
    nodes = Seq(
      NodeDef("MatMul", Seq("X", "W"), "xw"),
      NodeDef("Add", Seq("xw", "b"), "z"),
      NodeDef("OneHot", Seq("c"), "oh", Map("depth" -> 2f)),
      NodeDef("Mul", Seq("z", "oh"), "y"),
    ),
  )

  test("save/load roundtrip preserves structure and weights") {
    val path = Files.createTempFile("model", ".onnxlite")
    ModelFormat.save(graph, path)
    val loaded = ModelFormat.load(path)
    assert(loaded.name == graph.name)
    assert(loaded.inputs == graph.inputs)
    assert(loaded.output == graph.output)
    assert(loaded.nodes == graph.nodes)
    assert(loaded.initializers.keySet == graph.initializers.keySet)
    graph.initializers.foreach { case (k, t) =>
      assert(loaded.initializers(k).approxEquals(t, 0f), k)
    }
    Files.delete(path)
  }

  test("roundtripped graph computes identically") {
    val path = Files.createTempFile("model", ".onnxlite")
    ModelFormat.save(graph, path)
    val loaded = ModelFormat.load(path)
    val feeds = Map(
      "X" -> Tensor.ofRows(Array(Array(1f, 2f), Array(0f, 1f))),
      "c" -> Tensor.col(0f, 1f),
    )
    val a = new Session(graph).run(feeds)
    val b = new Session(loaded).run(feeds)
    assert(a.approxEquals(b, 0f))
    Files.delete(path)
  }

  test("load rejects a non-model file") {
    val path = Files.createTempFile("junk", ".bin")
    Files.write(path, Array[Byte](1, 2, 3, 4, 5, 6, 7, 8, 9))
    assertThrows[IllegalArgumentException](ModelFormat.load(path))
    Files.delete(path)
  }
}
