package repro.sparkext

import java.nio.file.{Files, Path}
import repro.ml.ModelPipeline

/** In-DB model store (§2): deployed model pipelines live inside the engine
  * and are invoked by id from SQL. A query resolves an id here when it is
  * analyzed; its plan then carries the pipeline and its variants.
  *
  * A process-wide object: in `local[*]` executors share the JVM with the
  * driver, which stands in for SQL Server's shared model cache.
  */
object ModelRegistry {

  private val models = new java.util.concurrent.ConcurrentHashMap[String, ModelPipeline]()

  /** Deploys `mp` under its id, for queries analyzed from now on. */
  def deploy(mp: ModelPipeline): Unit = models.put(mp.id, mp)

  def get(id: String): ModelPipeline = {
    val mp = models.get(id)
    require(mp != null, s"model '$id' is not deployed")
    mp
  }

  def contains(id: String): Boolean = models.containsKey(id)

  def clear(): Unit = models.clear()

  // ---- persistence (model files stored "in the database") -----------------

  def save(mp: ModelPipeline, path: Path): Unit = {
    val out = new java.io.ObjectOutputStream(Files.newOutputStream(path))
    try out.writeObject(mp)
    finally out.close()
  }

  def load(path: Path): ModelPipeline = {
    val in = new java.io.ObjectInputStream(Files.newInputStream(path))
    try in.readObject().asInstanceOf[ModelPipeline]
    finally in.close()
  }
}
