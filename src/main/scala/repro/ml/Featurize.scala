package repro.ml

/** One-hot encoding of a categorical column into a block of 0/1 features —
  * the MLD-category featurizer of the paper's IR (§3.1).
  *
  * Unknown categories encode to the all-zero vector (scikit-learn's
  * `handle_unknown='ignore'`).
  */
final case class OneHotEncoder(inputCol: String, categories: IndexedSeq[String]) extends Serializable {
  require(categories.distinct.size == categories.size, s"$inputCol: duplicate categories")

  def width: Int = categories.size

  private val index: Map[String, Int] = categories.zipWithIndex.toMap

  /** Category index, or -1 for unseen values. */
  def indexOf(value: String): Int = index.getOrElse(value, -1)

  def encode(value: String, out: Array[Double], offset: Int): Unit = {
    val i = indexOf(value)
    if (i >= 0) out(offset + i) = 1.0
  }
}

/** A featurization pipeline: a fixed layout of numeric passthrough columns
  * followed by one-hot blocks, mapping raw table rows to model feature
  * vectors.
  *
  * The layout is the contract shared by the trainers, the NN translator,
  * the cross-optimizer (predicates on raw columns are translated into
  * constraints on feature indices through it), and the runtimes.
  */
final case class FeaturePipeline(
    numericCols: Seq[String],
    encoders: Seq[OneHotEncoder],
) extends Serializable {

  /** Raw input columns in feed order: numerics first, then categoricals. */
  val inputCols: Seq[String] = numericCols ++ encoders.map(_.inputCol)

  val numFeatures: Int = numericCols.size + encoders.map(_.width).sum

  // the layout as the per-row loops below read it
  private val numCount = numericCols.size
  private val encs = encoders.toArray

  /** Human-readable name per feature index: `age`, `dest=JFK`, ... */
  lazy val featureNames: IndexedSeq[String] =
    (numericCols ++ encoders.flatMap(e => e.categories.map(c => s"${e.inputCol}=$c"))).toIndexedSeq

  /** Feature index of a numeric column. */
  def numericIndex(col: String): Int = {
    val i = numericCols.indexOf(col)
    require(i >= 0, s"'$col' is not a numeric pipeline column")
    i
  }

  /** (block start offset, encoder) for a categorical column. */
  def encoderBlock(col: String): (Int, OneHotEncoder) = {
    var off = numericCols.size
    encoders.foreach { e =>
      if (e.inputCol == col) return (off, e)
      off += e.width
    }
    throw new IllegalArgumentException(s"'$col' is not an encoded pipeline column")
  }

  def isCategorical(col: String): Boolean = encoders.exists(_.inputCol == col)

  /** Featurize one raw row given in [[inputCols]] order. A numeric value
    * reads as a double and NULL as 0.0; a categorical value reads as its
    * `String.valueOf`, and NULL as no category.
    */
  def transform(raw: IndexedSeq[Any]): Array[Double] = {
    require(raw.size == inputCols.size, s"expected ${inputCols.size} values, got ${raw.size}")
    val out = new Array[Double](numFeatures)
    var i = 0
    while (i < numCount) { out(i) = toDouble(raw(i)); i += 1 }
    var off = numCount
    var e = 0
    while (e < encs.length) {
      val v = raw(numCount + e)
      if (v != null) encs(e).encode(String.valueOf(v), out, off)
      off += encs(e).width
      e += 1
    }
    out
  }

  /** Raw row → per-column feed values for an NN-translated pipeline graph:
    * numerics pass through, categoricals become category indices (the
    * vocabulary lookup an ONNX-ML LabelEncoder would perform in-graph).
    */
  def toGraphFeeds(raw: IndexedSeq[Any]): Array[Double] = {
    require(raw.size == inputCols.size, s"expected ${inputCols.size} values, got ${raw.size}")
    val out = new Array[Double](inputCols.size)
    var i = 0
    while (i < numCount) { out(i) = toDouble(raw(i)); i += 1 }
    var e = 0
    while (e < encs.length) {
      val v = raw(numCount + e)
      out(numCount + e) = (if (v == null) -1 else encs(e).indexOf(String.valueOf(v))).toDouble
      e += 1
    }
    out
  }

  /** Restrict the pipeline to the feature indices in `keep`, in their
    * order (model-projection pushdown, §4.1): a numeric column stays if its
    * feature is kept, and an encoder keeps only its kept categories and
    * goes if it keeps none. A value of a dropped category then encodes as
    * an unseen one: all zeros in the encoder's block.
    */
  def project(keep: Set[Int]): FeaturePipeline = {
    require(keep.forall(f => f >= 0 && f < numFeatures), s"feature indices out of range: ${keep.toSeq.sorted}")
    var off = numCount
    val kept = encoders.map { e =>
      val cats = e.categories.indices.filter(i => keep(off + i)).map(e.categories)
      off += e.width
      e.copy(categories = cats)
    }
    FeaturePipeline(numericCols.indices.filter(keep).map(numericCols), kept.filter(_.width > 0))
  }

  private def toDouble(v: Any): Double = v match {
    case null       => 0.0
    case d: Double  => d
    case f: Float   => f.toDouble
    case i: Int     => i.toDouble
    case l: Long    => l.toDouble
    case s: Short   => s.toDouble
    case b: Byte    => b.toDouble
    case b: Boolean => if (b) 1.0 else 0.0
    case d: java.math.BigDecimal => d.doubleValue
    case s: String  => s.toDouble
    case other => throw new IllegalArgumentException(s"non-numeric value $other")
  }
}

/** Standardization (z-score) of numeric features; used ahead of MLP models. */
final case class StandardScaler(means: Array[Double], stds: Array[Double]) extends Serializable {
  def transform(x: Array[Double]): Array[Double] = {
    val out = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { out(i) = (x(i) - means(i)) / stds(i); i += 1 }
    out
  }
}

object StandardScaler {
  def fit(rows: Array[Array[Double]]): StandardScaler = {
    require(rows.nonEmpty, "cannot fit scaler on empty data")
    val n = rows.length
    val d = rows(0).length
    val means = new Array[Double](d)
    rows.foreach { r => var i = 0; while (i < d) { means(i) += r(i); i += 1 } }
    var i = 0
    while (i < d) { means(i) /= n; i += 1 }
    val vars = new Array[Double](d)
    rows.foreach { r =>
      var j = 0
      while (j < d) { val c = r(j) - means(j); vars(j) += c * c; j += 1 }
    }
    val stds = vars.map(v => math.max(math.sqrt(v / n), 1e-9))
    StandardScaler(means, stds)
  }
}
