package repro.onnx

import repro.linalg.Tensor

/** A single operator invocation in an OnnxLite graph.
  *
  * @param op     operator name, one of [[Ops.supported]]
  * @param inputs value names consumed (graph inputs, initializers, or other node outputs)
  * @param output value name produced (must be unique in the graph)
  * @param attrs  static operator attributes (e.g. `scale` for `Scale`,
  *               `depth` for `OneHot`)
  */
final case class NodeDef(
    op: String,
    inputs: Seq[String],
    output: String,
    attrs: Map[String, Float] = Map.empty,
) extends Serializable

/** An OnnxLite model graph — the reproduction's stand-in for an ONNX model.
  *
  * Like ONNX: a named dataflow DAG with free `inputs`, weight
  * `initializers`, a topologically-ordered node list, and a single
  * designated `output`. Graphs are immutable values; optimizer passes
  * ([[Passes]]) return rewritten copies.
  */
final case class GraphDef(
    name: String,
    inputs: Seq[String],
    output: String,
    initializers: Map[String, Tensor],
    nodes: Seq[NodeDef],
) extends Serializable {

  /** Validate name uniqueness, topological order, and op support; throws on malformed graphs. */
  def validated: GraphDef = {
    val produced = scala.collection.mutable.Set[String](inputs: _*)
    produced ++= initializers.keys
    require(inputs.distinct.size == inputs.size, s"$name: duplicate graph inputs")
    require(inputs.toSet.intersect(initializers.keySet).isEmpty, s"$name: input shadows initializer")
    nodes.foreach { n =>
      require(Ops.supported.contains(n.op), s"$name: unsupported op '${n.op}'")
      n.inputs.foreach(i => require(produced.contains(i), s"$name: node ${n.output} reads undefined value '$i'"))
      require(!produced.contains(n.output), s"$name: value '${n.output}' defined twice")
      produced += n.output
    }
    require(produced.contains(output), s"$name: output '$output' is never produced")
    this
  }

  /** Names of the values (inputs, initializers, node outputs) the output depends on. */
  def reachable: Set[String] = {
    val byOutput = nodes.map(n => n.output -> n).toMap
    val seen = scala.collection.mutable.Set[String]()
    def walk(v: String): Unit = if (seen.add(v)) byOutput.get(v).foreach(_.inputs.foreach(walk))
    walk(output)
    seen.toSet
  }

  /** Names of graph inputs the output reads (after pruning, some may be dead). */
  def liveInputs: Set[String] = inputs.toSet.intersect(reachable)

  def nodeCount: Int = nodes.size
}
