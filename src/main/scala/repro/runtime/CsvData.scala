package repro.runtime

import java.io.{BufferedReader, BufferedWriter, InputStreamReader, OutputStreamWriter}
import java.nio.file.{Files, Path}

/** Minimal CSV I/O for the standalone / out-of-process runtimes (the data
  * interchange outside the database engine, which the paper's standalone
  * ORT and external-script paths pay for).
  *
  * No quoting: the synthetic datasets contain no commas. NULL is an empty
  * field, so an empty string reads back as NULL.
  */
object CsvData {

  def write(rows: Iterator[IndexedSeq[Any]], path: Path): Long = {
    val w = new BufferedWriter(new OutputStreamWriter(Files.newOutputStream(path)), 1 << 20)
    var n = 0L
    try {
      rows.foreach { r =>
        w.write(r.iterator.map(v => if (v == null) "" else String.valueOf(v)).mkString(","))
        w.newLine()
        n += 1
      }
    } finally w.close()
    n
  }

  def readBatches(path: Path, batchSize: Int): Iterator[IndexedSeq[IndexedSeq[Any]]] = {
    val reader = Files.newBufferedReader(path)
    linesBatches(reader, batchSize)
  }

  def linesBatches(reader: BufferedReader, batchSize: Int): Iterator[IndexedSeq[IndexedSeq[Any]]] =
    new Iterator[IndexedSeq[IndexedSeq[Any]]] {
      private var nextLine: String = reader.readLine()
      def hasNext: Boolean = nextLine != null
      def next(): IndexedSeq[IndexedSeq[Any]] = {
        val buf = IndexedSeq.newBuilder[IndexedSeq[Any]]
        var i = 0
        while (i < batchSize && nextLine != null) {
          buf += parse(nextLine)
          nextLine = reader.readLine()
          i += 1
        }
        if (nextLine == null) reader.close()
        buf.result()
      }
    }

  /** Every field stays its text: the pipeline parses numeric columns, and a
    * category reads as written, as `raven_predict` reads `String.valueOf`.
    * An empty field is NULL.
    */
  def parse(line: String): IndexedSeq[Any] = {
    val fields = line.split(",", -1)
    var i = 0
    while (i < fields.length) { if (fields(i).isEmpty) fields(i) = null; i += 1 }
    scala.collection.immutable.ArraySeq.unsafeWrapArray(fields)
  }

  def readerOf(in: java.io.InputStream): BufferedReader =
    new BufferedReader(new InputStreamReader(in), 1 << 20)
}
