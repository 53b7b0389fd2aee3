package repro

import repro.linalg.Tensor
import repro.onnx.GraphDef

/** Comparisons and sizes that only tests read, as methods on the program's types. */
object TestSyntax {

  implicit class TensorTestOps(private val t: Tensor) extends AnyVal {
    /** Same shape, and every element within `eps`. */
    def approxEquals(other: Tensor, eps: Float = 1e-4f): Boolean =
      t.rows == other.rows && t.cols == other.cols && t.data.indices.forall(i => math.abs(t.data(i) - other.data(i)) <= eps)
  }

  implicit class GraphTestOps(private val g: GraphDef) extends AnyVal {
    /** Total number of weight elements, a proxy for model size on disk. */
    def weightElems: Long = g.initializers.valuesIterator.map(_.size).sum
  }
}
