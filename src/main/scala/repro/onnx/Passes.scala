package repro.onnx

import repro.linalg.Tensor

/** Graph-level optimizer passes, mirroring ONNX Runtime's graph
  * transformers (most importantly constant folding, which the paper uses
  * to propagate predicate constants such as `pregnant = 1` into the NN).
  */
object Passes {

  /** Apply the standard pass pipeline: bind → fold → eliminate dead nodes. */
  def optimize(graph: GraphDef): GraphDef =
    deadNodeElimination(constantFold(graph))

  /** Replace a free graph input with a constant 1x1 tensor.
    *
    * This is how a predicate-derived constant (e.g. `pregnant = 1` in the
    * running example) enters the graph; a subsequent [[constantFold]] then
    * evaluates every node whose inputs became static.
    */
  def bindInput(graph: GraphDef, name: String, value: Float): GraphDef = {
    require(graph.inputs.contains(name), s"${graph.name}: cannot bind unknown input '$name'")
    graph.copy(
      inputs = graph.inputs.filterNot(_ == name),
      initializers = graph.initializers + (name -> Tensor.fill(1, 1)(value)),
    )
  }

  /** Evaluate every node whose inputs are all initializers; the node is
    * removed and its output becomes an initializer.
    *
    * Note: initializer operands of row-broadcast ops (Add/Less/...) are
    * stored as 1-row tensors, so folding a bound scalar input through
    * OneHot/Concat/compare chains produces 1-row constants that still
    * broadcast correctly against the remaining batch-sized values.
    */
  def constantFold(graph: GraphDef): GraphDef = {
    val consts = scala.collection.mutable.Map[String, Tensor](graph.initializers.toSeq: _*)
    val remaining = Seq.newBuilder[NodeDef]
    graph.nodes.foreach { n =>
      if (n.inputs.forall(consts.contains)) consts(n.output) = Ops.execute(n, n.inputs.map(consts))
      else remaining += n
    }
    graph.copy(initializers = consts.toMap, nodes = remaining.result())
  }

  /** Drop nodes and initializers not reachable from the graph output. */
  def deadNodeElimination(graph: GraphDef): GraphDef = {
    val live = graph.reachable
    graph.copy(
      initializers = graph.initializers.view.filterKeys(live).toMap,
      nodes = graph.nodes.filter(n => live(n.output)),
    )
  }
}
