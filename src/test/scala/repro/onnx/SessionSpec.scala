package repro.onnx

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSyntax._
import repro.linalg.Tensor

class SessionSpec extends AnyFunSuite {

  /** y = sigmoid(X*W + b) with W=[[2],[−1]], b=[0.5] */
  private def linGraph: GraphDef = GraphDef(
    name = "lin",
    inputs = Seq("X"),
    output = "y",
    initializers = Map(
      "W" -> Tensor.ofRows(Array(Array(2f), Array(-1f))),
      "b" -> Tensor.row(0.5f),
    ),
    nodes = Seq(
      NodeDef("MatMul", Seq("X", "W"), "xw"),
      NodeDef("Add", Seq("xw", "b"), "z"),
      NodeDef("Sigmoid", Seq("z"), "y"),
    ),
  )

  test("validated accepts a well-formed graph") {
    linGraph.validated
  }

  test("validated rejects undefined input reference") {
    val g = linGraph.copy(nodes = linGraph.nodes :+ NodeDef("Relu", Seq("nope"), "w"))
    assertThrows[IllegalArgumentException](g.validated)
  }

  test("validated rejects duplicate value definition") {
    val g = linGraph.copy(nodes = linGraph.nodes :+ NodeDef("Relu", Seq("z"), "z"))
    assertThrows[IllegalArgumentException](g.validated)
  }

  test("validated rejects unsupported op") {
    val g = linGraph.copy(nodes = Seq(NodeDef("Conv", Seq("X"), "y")))
    assertThrows[IllegalArgumentException](g.validated)
  }

  test("validated rejects unproduced output") {
    val g = linGraph.copy(output = "nothing")
    assertThrows[IllegalArgumentException](g.validated)
  }

  test("validated rejects input shadowing initializer") {
    val g = linGraph.copy(inputs = Seq("X", "W"))
    assertThrows[IllegalArgumentException](g.validated)
  }

  test("session computes the expected function") {
    val s = new Session(linGraph)
    val out = s.run(Map("X" -> Tensor.ofRows(Array(Array(1f, 1f), Array(0f, 0f)))))
    def sig(x: Double) = 1.0 / (1.0 + math.exp(-x))
    assert(math.abs(out(0, 0) - sig(1.5)) < 1e-5)
    assert(math.abs(out(1, 0) - sig(0.5)) < 1e-5)
  }

  test("run(Map) requires all live inputs") {
    val s = new Session(linGraph)
    assertThrows[IllegalArgumentException](s.run(Map.empty[String, Tensor]))
  }

  test("constant folding evaluates static subgraphs") {
    val g = GraphDef(
      name = "cf",
      inputs = Seq("X"),
      output = "y",
      initializers = Map(
        "a" -> Tensor.row(1f, 2f),
        "b" -> Tensor.row(3f, 4f),
      ),
      nodes = Seq(
        NodeDef("Add", Seq("a", "b"), "c"),   // static: folds to (4,6)
        NodeDef("Add", Seq("X", "c"), "y"),
      ),
    )
    val folded = Passes.constantFold(g)
    assert(folded.nodes.map(_.op) == Seq("Add"))
    assert(folded.initializers("c").data.toSeq == Seq(4f, 6f))
    val out = new Session(folded, optimizeGraph = false).run(Map("X" -> Tensor.ofRows(Array(Array(1f, 1f)))))
    assert(out.data.toSeq == Seq(5f, 7f))
  }

  test("bindInput then fold specializes the graph (predicate constant propagation)") {
    // y = concat(A, onehot(cat,2)) * W ; binding cat=1 folds the one-hot
    val g = GraphDef(
      name = "bind",
      inputs = Seq("num", "cat"),
      output = "y",
      initializers = Map("W" -> Tensor.ofRows(Array(Array(1f), Array(10f), Array(100f)))),
      nodes = Seq(
        NodeDef("OneHot", Seq("cat"), "oh", Map("depth" -> 2f)),
        NodeDef("Concat", Seq("num", "oh"), "X"),
        NodeDef("MatMul", Seq("X", "W"), "y"),
      ),
    )
    val bound = Passes.optimize(Passes.bindInput(g, "cat", 1f))
    assert(bound.liveInputs == Set("num"))
    assert(bound.initializers.contains("oh")) // folded one-hot constant
    val out = new Session(bound, optimizeGraph = false).run(Map("num" -> Tensor.col(2f)))
    // 2*1 + 0*10 + 1*100
    assert(out.data.toSeq == Seq(102f))
  }

  test("bindInput rejects unknown input") {
    assertThrows[IllegalArgumentException](Passes.bindInput(linGraph, "nope", 1f))
  }

  test("dead node elimination drops unreachable nodes and weights") {
    val g = GraphDef(
      name = "dead",
      inputs = Seq("X"),
      output = "y",
      initializers = Map("W" -> Tensor.ofRows(Array(Array(1f))), "unused" -> Tensor.row(9f)),
      nodes = Seq(
        NodeDef("MatMul", Seq("X", "W"), "y"),
        NodeDef("Relu", Seq("X"), "orphan"),
      ),
    )
    val opt = Passes.deadNodeElimination(g)
    assert(opt.nodes.map(_.output) == Seq("y"))
    assert(!opt.initializers.contains("unused"))
  }

  test("liveInputs reflects reachability") {
    val g = GraphDef(
      name = "live",
      inputs = Seq("a", "b"),
      output = "y",
      initializers = Map.empty,
      nodes = Seq(NodeDef("Relu", Seq("a"), "y"), NodeDef("Relu", Seq("b"), "z")),
    )
    assert(g.liveInputs == Set("a"))
  }

  test("weightElems and nodeCount") {
    assert(linGraph.nodeCount == 3)
    assert(linGraph.weightElems == 3)
  }
}
