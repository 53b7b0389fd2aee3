package repro.onnx

import repro.linalg.Tensor

/** Operator kernels for the OnnxLite runtime.
  *
  * The set is exactly the ONNX ops the NN translator
  * ([[repro.ml.NNTranslator]]) emits: GEMM-style linear algebra (`MatMul`,
  * `Add`, `Sum`, `Scale`), the scaler's `Sub`/`Mul`, the comparisons of the
  * Hummingbird-style tree compilation (`Less`, `Equal`), the activations of
  * MLP/logistic models (`Sigmoid`, `Relu`, `Tanh`), and `OneHot`/`Concat`
  * for in-graph featurization.
  */
object Ops {

  val supported: Set[String] = Set(
    "MatMul", "Add", "Sub", "Mul", "Less", "Equal",
    "Sigmoid", "Relu", "Tanh", "Scale", "Sum", "Concat", "OneHot",
  )

  /** Execute one node over resolved input tensors.
    *
    * @param parallelism row-parallelism for MatMul — 1 on the CPU path,
    *                    all cores on the simulated-GPU path.
    */
  def execute(node: NodeDef, inputs: Seq[Tensor], parallelism: Int = 1): Tensor = node.op match {
    case "MatMul"      => binary(node, inputs)((a, b) => a.matmul(b, parallelism))
    case "Add"         => binary(node, inputs)(_.add(_))
    case "Sub"         => binary(node, inputs)(_.sub(_))
    case "Mul"         => binary(node, inputs)(_.mul(_))
    case "Less"        => binary(node, inputs)(_.lt(_))
    case "Equal"       => binary(node, inputs)(_.eq0(_))
    case "Sigmoid"     => unary(node, inputs)(_.map(v => (1.0 / (1.0 + math.exp(-v))).toFloat))
    case "Relu"        => unary(node, inputs)(_.map(v => math.max(0f, v)))
    case "Tanh"        => unary(node, inputs)(_.map(v => math.tanh(v).toFloat))
    case "Scale"       => unary(node, inputs)(_.scale(attr(node, "scale")))
    case "Sum" =>
      require(inputs.nonEmpty, s"Sum ${node.output}: no inputs")
      inputs.reduce(_.add(_))
    case "Concat" =>
      require(inputs.nonEmpty, s"Concat ${node.output}: no inputs")
      inputs.head.concat(inputs.tail: _*)
    case "OneHot" =>
      // Input: (rows x 1) category indices; output: (rows x depth) indicators.
      // Out-of-range indices encode to all-zeros, matching an encoder that
      // drops unseen categories.
      val in = unaryIn(node, inputs)
      val depth = attr(node, "depth").toInt
      require(in.cols == 1, s"OneHot ${node.output}: input must be a single column")
      val out = Tensor.zeros(in.rows, depth)
      var r = 0
      while (r < in.rows) {
        val k = in(r, 0).toInt
        if (k >= 0 && k < depth) out(r, k) = 1f
        r += 1
      }
      out
    case other => throw new IllegalArgumentException(s"unsupported op '$other'")
  }

  private def attr(node: NodeDef, key: String): Float =
    node.attrs.getOrElse(key, throw new IllegalArgumentException(s"${node.op} ${node.output}: missing attr '$key'"))

  private def unaryIn(node: NodeDef, inputs: Seq[Tensor]): Tensor = {
    require(inputs.size == 1, s"${node.op} ${node.output}: expected 1 input, got ${inputs.size}")
    inputs.head
  }

  private def unary(node: NodeDef, inputs: Seq[Tensor])(f: Tensor => Tensor): Tensor = f(unaryIn(node, inputs))

  private def binary(node: NodeDef, inputs: Seq[Tensor])(f: (Tensor, Tensor) => Tensor): Tensor = {
    require(inputs.size == 2, s"${node.op} ${node.output}: expected 2 inputs, got ${inputs.size}")
    f(inputs(0), inputs(1))
  }
}
