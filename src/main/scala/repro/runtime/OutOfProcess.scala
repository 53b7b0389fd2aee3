package repro.runtime

import java.nio.file.{Files, Path, Paths}

/** Out-of-process execution ("Raven Ext", §5): the engine spawns an
  * external runtime process per query, pipes the input rows out, and reads
  * predictions back. The constant ~0.5 s the paper reports is the
  * interpreter startup; here it is a real forked JVM running
  * [[ExternalRuntimeMain]].
  */
object OutOfProcess {

  /** `stderrTail` holds the last [[StderrTailChars]] characters the child wrote to stderr. */
  final case class Result(rows: Long, checksum: Double, exitCode: Int, stderrTail: String)

  val StderrTailChars = 4096

  def run(modelDir: Path, csvPath: Path, batchSize: Int = 4096, mode: String = "nn"): Result = {
    // the child runs on this JVM's classpath, i.e. against the same build
    val proc = new ProcessBuilder(
      javaBin, "-Xmx2g", "-cp", System.getProperty("java.class.path"),
      "repro.runtime.ExternalRuntimeMain", modelDir.toString, batchSize.toString, mode).start()

    // writer thread: stream the CSV into the child's stdin
    val writer = new Thread(() => {
      val out = proc.getOutputStream
      try Files.copy(csvPath, out)
      finally out.close()
    }, "oop-writer")
    writer.setDaemon(true)
    writer.start()

    // drain stderr: a child that fills the pipe would block, and this reader with it
    val tail = new java.lang.StringBuilder
    val drainer = new Thread(() => {
      val err = new java.io.InputStreamReader(proc.getErrorStream)
      val buf = new Array[Char](8192)
      var n = err.read(buf)
      while (n >= 0) {
        tail.append(buf, 0, n)
        if (tail.length > StderrTailChars) tail.delete(0, tail.length - StderrTailChars)
        n = err.read(buf)
      }
    }, "oop-stderr")
    drainer.setDaemon(true)
    drainer.start()

    var rows = 0L
    var checksum = 0.0
    val reader = CsvData.readerOf(proc.getInputStream)
    var line = reader.readLine()
    while (line != null) {
      rows += 1
      checksum += java.lang.Double.parseDouble(line)
      line = reader.readLine()
    }
    writer.join()
    val exit = proc.waitFor()
    drainer.join()
    Result(rows, checksum, exit, tail.toString)
  }

  private def javaBin: String =
    Paths.get(System.getProperty("java.home"), "bin", "java").toString
}
