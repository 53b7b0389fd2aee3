package repro.ml

import repro.linalg.Tensor
import repro.onnx.{GraphDef, NodeDef}

/** NN translation (§4.2): compile classical ML operators and featurizers
  * into linear-algebra graphs executable by the OnnxLite runtime.
  *
  * Trees use the GEMM compilation strategy (as in Hummingbird): for each
  * tree with internal nodes `j` and leaves `l`,
  *
  *   d   = (X·A < B)        A one-hot-selects each node's feature, B holds thresholds
  *   e   = (d·C == L)       C is +1/-1/0 ancestor-direction, L counts left-ancestors
  *   out = e·V              V holds leaf values
  *
  * `e` is exactly the one-hot indicator of the reached leaf, so the graph
  * reproduces tree semantics bit-for-bit on the same float inputs
  * (property-tested against the interpreted tree).
  */
object NNTranslator {

  /** Translate a whole pipeline (featurization + scaler + model) into a
    * graph with one input per raw column; categorical columns are fed as
    * vocabulary indices and one-hot encoded in-graph.
    */
  def translatePipeline(mp: ModelPipeline): GraphDef = {
    val name = mp.id
    val b = new GraphBuilder(name)
    val pipe = mp.pipeline
    val ohOuts = pipe.encoders.map { enc =>
      val out = s"$name/oh_${enc.inputCol}"
      b.nodes += NodeDef("OneHot", Seq(enc.inputCol), out, Map("depth" -> enc.width.toFloat))
      out
    }
    val featParts = pipe.numericCols ++ ohOuts
    val x0 =
      if (featParts.size == 1) featParts.head
      else { b.nodes += NodeDef("Concat", featParts, s"$name/X"); s"$name/X" }

    val x1 = mp.scaler match {
      case None => x0
      case Some(sc) =>
        b.inits(s"$name/mean") = Tensor.ofDoubleRows(Array(sc.means))
        b.inits(s"$name/invstd") = Tensor.ofDoubleRows(Array(sc.stds.map(1.0 / _)))
        b.nodes += NodeDef("Sub", Seq(x0, s"$name/mean"), s"$name/centered")
        b.nodes += NodeDef("Mul", Seq(s"$name/centered", s"$name/invstd"), s"$name/scaled")
        s"$name/scaled"
    }

    val out = emitModel(b, mp.model, x1, name)
    GraphDef(name, pipe.inputCols, out, b.inits.toMap, b.nodes.toSeq).validated
  }

  // ---- emission helpers ---------------------------------------------------

  private final class GraphBuilder(val name: String) {
    val inits = scala.collection.mutable.LinkedHashMap[String, Tensor]()
    val nodes = scala.collection.mutable.ArrayBuffer[NodeDef]()
  }

  private def emitModel(b: GraphBuilder, model: Model, x: String, prefix: String): String = model match {
    case m: LinearModel       => emitLinear(b, m, x, s"$prefix/lin")
    case m: DecisionTreeModel => emitTree(b, m, x, s"$prefix/t0")
    case m: RandomForestModel =>
      val outs = m.trees.zipWithIndex.map { case (t, i) => emitTree(b, t, x, s"$prefix/t$i") }
      val sum =
        if (outs.size == 1) outs.head
        else { b.nodes += NodeDef("Sum", outs, s"$prefix/sum"); s"$prefix/sum" }
      b.nodes += NodeDef("Scale", Seq(sum), s"$prefix/avg", Map("scale" -> (1f / m.trees.size)))
      s"$prefix/avg"
    case m: MlpModel          => emitMlp(b, m, x, s"$prefix/mlp")
    case other =>
      throw new IllegalArgumentException(s"NN translation unsupported for ${other.getClass.getSimpleName}")
  }

  private def emitLinear(b: GraphBuilder, m: LinearModel, x: String, p: String): String = {
    b.inits(s"$p/W") = new Tensor(m.numFeatures, 1, m.weights.map(_.toFloat))
    b.inits(s"$p/b") = Tensor.fill(1, 1)(m.intercept.toFloat)
    b.nodes += NodeDef("MatMul", Seq(x, s"$p/W"), s"$p/xw")
    b.nodes += NodeDef("Add", Seq(s"$p/xw", s"$p/b"), s"$p/z")
    if (m.logistic) { b.nodes += NodeDef("Sigmoid", Seq(s"$p/z"), s"$p/out"); s"$p/out" }
    else s"$p/z"
  }

  private def emitMlp(b: GraphBuilder, m: MlpModel, x: String, p: String): String = {
    var cur = x
    m.layers.zipWithIndex.foreach { case (layer, i) =>
      val lp = s"$p/l$i"
      b.inits(s"$lp/W") = Tensor.ofDoubleRows(layer.w)
      b.inits(s"$lp/b") = Tensor.ofDoubleRows(Array(layer.b))
      b.nodes += NodeDef("MatMul", Seq(cur, s"$lp/W"), s"$lp/xw")
      b.nodes += NodeDef("Add", Seq(s"$lp/xw", s"$lp/b"), s"$lp/z")
      cur = layer.activation match {
        case "identity" => s"$lp/z"
        case "relu"     => b.nodes += NodeDef("Relu", Seq(s"$lp/z"), s"$lp/a"); s"$lp/a"
        case "sigmoid"  => b.nodes += NodeDef("Sigmoid", Seq(s"$lp/z"), s"$lp/a"); s"$lp/a"
        case "tanh"     => b.nodes += NodeDef("Tanh", Seq(s"$lp/z"), s"$lp/a"); s"$lp/a"
        case other      => throw new IllegalArgumentException(s"unknown activation '$other'")
      }
    }
    cur
  }

  private def emitTree(b: GraphBuilder, m: DecisionTreeModel, x: String, p: String): String = {
    m.root match {
      case Leaf(v) =>
        // Constant tree: batch-shaped zero via a zero GEMM, then add the value.
        b.inits(s"$p/Z") = Tensor.zeros(m.numFeatures, 1)
        b.inits(s"$p/v") = Tensor.fill(1, 1)(v.toFloat)
        b.nodes += NodeDef("MatMul", Seq(x, s"$p/Z"), s"$p/z0")
        b.nodes += NodeDef("Add", Seq(s"$p/z0", s"$p/v"), s"$p/out")
        s"$p/out"
      case _ =>
        val internals = m.internalNodes
        val leafVals = m.leaves.map(_.value)
        val nI = internals.size
        val nL = leafVals.size
        // Identity map: structurally-equal subtrees are distinct internal nodes.
        val nodeIdx = new java.util.IdentityHashMap[Split, Integer]()
        internals.zipWithIndex.foreach { case (s, j) => nodeIdx.put(s, j) }

        val a = Tensor.zeros(m.numFeatures, nI)
        val thr = Tensor.zeros(1, nI)
        internals.zipWithIndex.foreach { case (s, j) =>
          a(s.feature, j) = 1f
          thr(0, j) = s.threshold.toFloat
        }

        val c = Tensor.zeros(nI, nL)
        val lcount = Tensor.zeros(1, nL)
        val v = Tensor.zeros(nL, 1)
        var leafCursor = 0
        // ancestors: list of (internal node index, wentLeft)
        def walk(n: TreeNode, ancestors: List[(Int, Boolean)]): Unit = n match {
          case Leaf(value) =>
            val l = leafCursor; leafCursor += 1
            v(l, 0) = value.toFloat
            ancestors.foreach { case (j, left) =>
              c(j, l) = if (left) 1f else -1f
              if (left) lcount(0, l) += 1f
            }
          case s @ Split(_, _, lt, rt) =>
            val j: Int = nodeIdx.get(s)
            walk(lt, (j, true) :: ancestors)
            walk(rt, (j, false) :: ancestors)
        }
        walk(m.root, Nil)

        b.inits(s"$p/A") = a
        b.inits(s"$p/B") = thr
        b.inits(s"$p/C") = c
        b.inits(s"$p/L") = lcount
        b.inits(s"$p/V") = v
        b.nodes += NodeDef("MatMul", Seq(x, s"$p/A"), s"$p/fv")
        b.nodes += NodeDef("Less", Seq(s"$p/fv", s"$p/B"), s"$p/d")
        b.nodes += NodeDef("MatMul", Seq(s"$p/d", s"$p/C"), s"$p/path")
        b.nodes += NodeDef("Equal", Seq(s"$p/path", s"$p/L"), s"$p/leaf")
        b.nodes += NodeDef("MatMul", Seq(s"$p/leaf", s"$p/V"), s"$p/out")
        s"$p/out"
    }
  }
}
