package repro.ml

/** A trained model over a fixed-width numeric feature vector.
  *
  * `predict` returns the raw score: class-1 probability for classifiers,
  * the predicted value for regressors. This is the "classical framework"
  * execution path (per-row, pointer-chasing / virtual dispatch) that the
  * paper contrasts with NN-translated linear-algebra execution.
  */
trait Model extends Serializable {
  def numFeatures: Int

  /** Score a single feature vector. */
  def predict(x: Array[Double]): Double

  /** Feature indices that can influence the prediction. */
  def usedFeatures: Set[Int]
}

/** Linear or logistic model. `logistic = true` applies a sigmoid. */
final case class LinearModel(
    weights: Array[Double],
    intercept: Double,
    logistic: Boolean,
) extends Model {

  def numFeatures: Int = weights.length

  /** A zero weight reads nothing: a NaN or infinite value of its feature
    * leaves the score as it is, as when projection has dropped the feature.
    */
  def predict(x: Array[Double]): Double = {
    require(x.length == weights.length, s"expected ${weights.length} features, got ${x.length}")
    var s = intercept
    var i = 0
    while (i < weights.length) { if (weights(i) != 0.0) s += weights(i) * x(i); i += 1 }
    if (logistic) 1.0 / (1.0 + math.exp(-s)) else s
  }

  def usedFeatures: Set[Int] = weights.indices.filter(weights(_) != 0.0).toSet

  /** Fraction of exactly-zero weights — the quantity swept in Fig. 2(a). */
  def sparsity: Double = weights.count(_ == 0.0).toDouble / math.max(1, weights.length)

  /** Zero out the smallest-magnitude weights until `target` sparsity is reached
    * (used to pin the paper's 41.75% / 80.96% sparsity settings exactly).
    */
  def sparsify(target: Double): LinearModel = {
    val nZero = math.round(target * weights.length).toInt
    val cutRank = weights.map(math.abs).sorted.apply(math.min(weights.length - 1, math.max(0, nZero - 1)))
    val w = weights.clone()
    var zeroed = 0
    var i = 0
    while (i < w.length && zeroed < nZero) {
      if (math.abs(w(i)) <= cutRank && w(i) != 0.0) { w(i) = 0.0; zeroed += 1 }
      else if (w(i) == 0.0) zeroed += 1
      i += 1
    }
    copy(weights = w)
  }
}

object LinearModel {

  /** Full-batch gradient training with L1 proximal step (ISTA) — produces
    * genuinely sparse weights under regularization, like scikit-learn's
    * Lasso / L1 `LogisticRegression` that the paper trains.
    *
    * @param l1 regularization strength (0 disables)
    */
  def train(
      x: Array[Array[Double]],
      y: Array[Double],
      logistic: Boolean,
      l1: Double = 0.0,
      epochs: Int = 150,
      lr: Double = 0.5,
  ): LinearModel = {
    require(x.nonEmpty && x.length == y.length, "bad training data")
    val n = x.length
    val d = x(0).length
    val w = new Array[Double](d)
    var b = 0.0
    var epoch = 0
    while (epoch < epochs) {
      val gw = new Array[Double](d)
      var gb = 0.0
      var i = 0
      while (i < n) {
        val xi = x(i)
        var s = b
        var j = 0
        while (j < d) { s += w(j) * xi(j); j += 1 }
        val pred = if (logistic) 1.0 / (1.0 + math.exp(-s)) else s
        val err = pred - y(i)
        gb += err
        j = 0
        while (j < d) { gw(j) += err * xi(j); j += 1 }
        i += 1
      }
      val step = lr / n
      b -= step * gb
      var j = 0
      while (j < d) {
        var v = w(j) - step * gw(j)
        if (l1 > 0.0) { // soft-threshold (proximal operator of the L1 norm)
          val t = step * l1 * n
          v = math.signum(v) * math.max(0.0, math.abs(v) - t)
        }
        w(j) = v
        j += 1
      }
      epoch += 1
    }
    LinearModel(w, b, logistic)
  }
}

/** A dense feed-forward layer: out = act(x * w + b), w is (in x out). */
final case class MlpLayer(w: Array[Array[Double]], b: Array[Double], activation: String) extends Serializable {
  require(w.nonEmpty && w(0).length == b.length, "layer shape mismatch")
  def inDim: Int = w.length
  def outDim: Int = b.length

  def forward(x: Array[Double]): Array[Double] = {
    val out = b.clone()
    var i = 0
    while (i < x.length) {
      val xi = x(i)
      if (xi != 0.0) {
        val wi = w(i)
        var j = 0
        while (j < out.length) { out(j) += xi * wi(j); j += 1 }
      }
      i += 1
    }
    var j = 0
    while (j < out.length) { out(j) = MlpLayer.act(activation, out(j)); j += 1 }
    out
  }
}

object MlpLayer {
  def act(name: String, v: Double): Double = name match {
    case "relu"     => math.max(0.0, v)
    case "sigmoid"  => 1.0 / (1.0 + math.exp(-v))
    case "tanh"     => math.tanh(v)
    case "identity" => v
    case other      => throw new IllegalArgumentException(s"unknown activation '$other'")
  }
}

/** Multi-layer perceptron with a single output unit. */
final case class MlpModel(layers: Seq[MlpLayer]) extends Model {
  require(layers.nonEmpty && layers.last.outDim == 1, "MLP must end in a single output unit")

  def numFeatures: Int = layers.head.inDim

  def predict(x: Array[Double]): Double =
    layers.foldLeft(x)((h, l) => l.forward(h))(0)

  /** Features whose first-layer column is entirely zero cannot matter. */
  def usedFeatures: Set[Int] =
    layers.head.w.indices.filter(i => layers.head.w(i).exists(_ != 0.0)).toSet
}

object MlpModel {

  /** Deterministic random-init MLP trained with plain SGD (squared loss on
    * the sigmoid output for classification-style targets).
    */
  def train(
      x: Array[Array[Double]],
      y: Array[Double],
      hidden: Seq[Int],
      epochs: Int = 5,
      lr: Double = 0.05,
      seed: Long = 42,
  ): MlpModel = {
    require(x.nonEmpty, "empty training data")
    val rnd = new scala.util.Random(seed)
    val dims = x(0).length +: hidden :+ 1
    val acts = hidden.map(_ => "relu") :+ "sigmoid"
    var ws = dims.sliding(2).zipWithIndex.map { case (Seq(in, out), li) =>
      val scale = math.sqrt(2.0 / in)
      (Array.fill(in, out)(rnd.nextGaussian() * scale), new Array[Double](out), acts(li))
    }.toVector

    var epoch = 0
    while (epoch < epochs) {
      var i = 0
      while (i < x.length) {
        // forward, keeping pre-activations
        var h = x(i)
        val hs = Array.ofDim[Array[Double]](ws.length + 1)
        hs(0) = h
        var li = 0
        while (li < ws.length) {
          val (w, b, a) = ws(li)
          val out = b.clone()
          var k = 0
          while (k < h.length) {
            val hk = h(k)
            if (hk != 0.0) { val wk = w(k); var j = 0; while (j < out.length) { out(j) += hk * wk(j); j += 1 } }
            k += 1
          }
          var j = 0
          while (j < out.length) { out(j) = MlpLayer.act(a, out(j)); j += 1 }
          hs(li + 1) = out
          h = out
          li += 1
        }
        // backward (squared loss; relu/sigmoid derivative from activations)
        var delta = Array(h(0) - y(i))
        li = ws.length - 1
        while (li >= 0) {
          val (w, b, a) = ws(li)
          val inAct = hs(li)
          val outAct = hs(li + 1)
          val d = delta.clone()
          var j = 0
          while (j < d.length) {
            d(j) *= (a match {
              case "relu"    => if (outAct(j) > 0) 1.0 else 0.0
              case "sigmoid" => outAct(j) * (1.0 - outAct(j))
              case _         => 1.0
            })
            j += 1
          }
          val nextDelta = new Array[Double](inAct.length)
          var k = 0
          while (k < inAct.length) {
            val wk = w(k)
            var s = 0.0
            j = 0
            while (j < d.length) { s += wk(j) * d(j); wk(j) -= lr * d(j) * inAct(k); j += 1 }
            nextDelta(k) = s
            k += 1
          }
          j = 0
          while (j < d.length) { b(j) -= lr * d(j); j += 1 }
          delta = nextDelta
          li -= 1
        }
        i += 1
      }
      epoch += 1
    }
    MlpModel(ws.map { case (w, b, a) => MlpLayer(w, b, a) })
  }
}
