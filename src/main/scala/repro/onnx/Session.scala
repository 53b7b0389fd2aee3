package repro.onnx

import repro.linalg.Tensor

/** An inference session over an OnnxLite graph — the analogue of an ONNX
  * Runtime `InferenceSession`.
  *
  * Construction validates the graph and runs the optimizer passes (this
  * cost is what SQL Server's inference-session cache amortizes across
  * queries, per §5 of the paper — the standalone "ORT" backend pays it on
  * every query, the in-process "Raven" backend pays it once).
  *
  * @param parallelism row-parallelism for GEMM kernels; 1 models
  *                    single-threaded ORT, >1 the simulated GPU.
  */
final class Session(
    rawGraph: GraphDef,
    optimizeGraph: Boolean = true,
    val parallelism: Int = 1,
) extends Serializable {

  val graph: GraphDef =
    if (optimizeGraph) Passes.optimize(rawGraph.validated) else rawGraph.validated

  private val live = graph.liveInputs
  Session.builds.incrementAndGet()

  /** Run the graph over named input batches; every live input must be provided. */
  def run(feeds: Map[String, Tensor]): Tensor = {
    live.foreach(i => require(feeds.contains(i), s"${graph.name}: missing feed for input '$i'"))
    val env = scala.collection.mutable.Map[String, Tensor](graph.initializers.toSeq: _*)
    feeds.foreach { case (k, v) => if (live.contains(k)) env(k) = v }
    graph.nodes.foreach { n =>
      env(n.output) = Ops.execute(n, n.inputs.map(env), parallelism)
    }
    env(graph.output)
  }
}

object Session {

  /** Sessions built in this JVM; a session cache keeps it flat. */
  val builds = new java.util.concurrent.atomic.AtomicLong
}
