package repro.linalg

import java.util.concurrent.{Callable, Executors, TimeUnit}

/** Dense, row-major 2-D float tensor — the value type of the OnnxLite runtime.
  *
  * Mirrors the layout ONNX Runtime uses for batched inference: the first
  * dimension is the batch (rows), the second the feature/channel dimension.
  * All kernels are allocation-light and operate on primitive arrays so the
  * linear-algebra ("NN translated") execution path is genuinely compiled
  * tight-loop code, in contrast to the interpreted per-row classical path
  * in [[repro.ml]].
  */
final class Tensor(val rows: Int, val cols: Int, val data: Array[Float]) extends Serializable {
  require(data.length == rows.toLong * cols, s"shape ($rows x $cols) != data length ${data.length}")

  @inline def apply(r: Int, c: Int): Float = data(r * cols + c)
  @inline def update(r: Int, c: Int, v: Float): Unit = data(r * cols + c) = v

  def size: Long = rows.toLong * cols

  /** Matrix product `this * other`, optionally split row-wise over a thread pool. */
  def matmul(other: Tensor, parallelism: Int = 1): Tensor = {
    require(cols == other.rows, s"matmul shape mismatch: ($rows x $cols) * (${other.rows} x ${other.cols})")
    val out = new Array[Float](rows * other.cols)
    val oc = other.cols
    def rowsRange(r0: Int, r1: Int): Unit = {
      var i = r0
      while (i < r1) {
        var k = 0
        while (k < cols) {
          val a = data(i * cols + k)
          if (a != 0f) {
            val bOff = k * oc
            val oOff = i * oc
            var j = 0
            while (j < oc) { out(oOff + j) += a * other.data(bOff + j); j += 1 }
          }
          k += 1
        }
        i += 1
      }
    }
    if (parallelism <= 1 || rows < 64) rowsRange(0, rows)
    else Tensor.parallelRows(rows, parallelism)(rowsRange)
    new Tensor(rows, other.cols, out)
  }

  /** Add a 1-row tensor to every row (broadcast) or an equal-shape tensor elementwise. */
  def add(other: Tensor): Tensor = zipBroadcast(other, _ + _)
  def sub(other: Tensor): Tensor = zipBroadcast(other, _ - _)
  def mul(other: Tensor): Tensor = zipBroadcast(other, _ * _)

  /** Elementwise `this < other` (broadcast row allowed) as 0/1 floats. */
  def lt(other: Tensor): Tensor  = zipBroadcast(other, (a, b) => if (a < b) 1f else 0f)
  def eq0(other: Tensor): Tensor = zipBroadcast(other, (a, b) => if (a == b) 1f else 0f)

  def map(f: Float => Float): Tensor = {
    val out = new Array[Float](data.length)
    var i = 0
    while (i < data.length) { out(i) = f(data(i)); i += 1 }
    new Tensor(rows, cols, out)
  }

  def scale(s: Float): Tensor = map(_ * s)

  private def zipBroadcast(other: Tensor, f: (Float, Float) => Float): Tensor = {
    require(other.cols == cols && (other.rows == rows || other.rows == 1),
      s"broadcast shape mismatch: ($rows x $cols) vs (${other.rows} x ${other.cols})")
    val out = new Array[Float](data.length)
    if (other.rows == rows) {
      var i = 0
      while (i < data.length) { out(i) = f(data(i), other.data(i)); i += 1 }
    } else {
      var r = 0
      while (r < rows) {
        val off = r * cols
        var c = 0
        while (c < cols) { out(off + c) = f(data(off + c), other.data(c)); c += 1 }
        r += 1
      }
    }
    new Tensor(rows, cols, out)
  }

  /** Horizontal concatenation of equal-row tensors. */
  def concat(others: Tensor*): Tensor = {
    val all = this +: others
    require(all.forall(_.rows == rows), "concat requires equal row counts")
    val totalCols = all.map(_.cols).sum
    val out = new Array[Float](rows * totalCols)
    var r = 0
    while (r < rows) {
      var off = r * totalCols
      all.foreach { t =>
        System.arraycopy(t.data, r * t.cols, out, off, t.cols)
        off += t.cols
      }
      r += 1
    }
    new Tensor(rows, totalCols, out)
  }

  def toArray2: Array[Array[Float]] = Array.tabulate(rows)(r => data.slice(r * cols, (r + 1) * cols))

  override def toString: String =
    s"Tensor($rows x $cols)" + (if (size <= 64) toArray2.map(_.mkString("[", ",", "]")).mkString("[", ",", "]") else "")
}

object Tensor {
  def zeros(rows: Int, cols: Int): Tensor = new Tensor(rows, cols, new Array[Float](rows * cols))

  def fill(rows: Int, cols: Int)(v: Float): Tensor = new Tensor(rows, cols, Array.fill(rows * cols)(v))

  def row(values: Float*): Tensor = new Tensor(1, values.length, values.toArray)

  def col(values: Float*): Tensor = new Tensor(values.length, 1, values.toArray)

  def ofRows(rows: Array[Array[Float]]): Tensor = {
    require(rows.nonEmpty, "ofRows requires at least one row")
    val cols = rows(0).length
    val data = new Array[Float](rows.length * cols)
    var r = 0
    while (r < rows.length) {
      require(rows(r).length == cols, "ragged rows")
      System.arraycopy(rows(r), 0, data, r * cols, cols)
      r += 1
    }
    new Tensor(rows.length, cols, data)
  }

  def ofDoubleRows(rows: Array[Array[Double]]): Tensor =
    ofRows(rows.map(_.map(_.toFloat)))

  // Shared daemon pool for row-parallel kernels (the simulated-GPU backend);
  // per-call pool creation would dominate small-kernel latencies.
  private lazy val sharedPool = Executors.newFixedThreadPool(
    Runtime.getRuntime.availableProcessors(),
    (r: Runnable) => { val t = new Thread(r, "tensor-par"); t.setDaemon(true); t }
  )

  /** Run `body(r0, r1)` over row chunks on the shared pool. */
  private[repro] def parallelRows(rows: Int, parallelism: Int)(body: (Int, Int) => Unit): Unit = {
    val chunk = math.max(1, (rows + parallelism - 1) / parallelism)
    val tasks = (0 until rows by chunk).map { r0 =>
      new Callable[Unit] { def call(): Unit = body(r0, math.min(rows, r0 + chunk)) }
    }
    import scala.jdk.CollectionConverters._
    sharedPool.invokeAll(tasks.asJava).asScala.foreach(_.get())
  }
}
