package repro.runtime

import repro.linalg.Tensor
import repro.onnx.{GraphDef, Ops, Session}

/** Simulated GPU backend for NN-translated models (§4.2, Fig. 2(d)).
  *
  * The paper's RF-NN/GPU numbers come from an Nvidia K80, which this
  * container does not have. Substitution: the same LA graph is executed
  * with (a) real row-parallel GEMM kernels across all cores — modeling the
  * device's data parallelism — and (b) a timing model charged as busy-wait
  * for the costs a discrete GPU adds: per-kernel launch latency and PCIe
  * transfer of the input/output batch. This preserves the behaviour that
  * matters in Fig. 2(d): fixed overheads dominate small batches (GPU ≈
  * CPU at 1K rows) while throughput dominates large ones (GPU ≫ CPU at
  * 1M rows).
  */
object SimGpu {

  /** @param kernelLaunchMicros fixed cost per graph-node "kernel launch"
    * @param transferGBps       PCIe-like host↔device bandwidth
    * @param parallelism        device compute parallelism (SM analogue)
    */
  final case class GpuSpec(
      kernelLaunchMicros: Double = 20.0,
      transferGBps: Double = 8.0,
      parallelism: Int = Runtime.getRuntime.availableProcessors(),
  )

  final class GpuSession(graph: GraphDef, spec: GpuSpec = GpuSpec()) {
    private val session = new Session(graph, optimizeGraph = true, parallelism = spec.parallelism)

    /** Runs the graph over [[repro.ml.NNPipelineModel.feeds]], charging the transfers and launches. */
    def run(feeds: Map[String, Tensor]): Tensor = {
      // nanos = bytes / (GB/s * 1e9 B/GB) * 1e9 ns/s = bytes / (GB/s)
      val inBytes = feeds.valuesIterator.map(_.size * 4L).sum
      spinNanos((inBytes / spec.transferGBps).toLong)
      spinNanos((session.graph.nodeCount * spec.kernelLaunchMicros * 1000).toLong)
      val out = session.run(feeds)
      spinNanos((out.size * 4L / spec.transferGBps).toLong)
      out
    }
  }

  /** Busy-wait (not sleep): sub-millisecond latencies with ~µs fidelity. */
  private def spinNanos(nanos: Long): Unit = {
    val end = System.nanoTime() + nanos
    while (System.nanoTime() < end) {}
  }
}
