package repro.sparkext

import java.nio.file.{Files, Path}
import scala.collection.mutable
import repro.ml.{ColPredicate, ModelPipeline, ModelPruner}

/** In-DB model store (§2): deployed model pipelines live inside the engine
  * and are invoked by id from SQL. Also holds the variants the optimizer
  * derives from them (pruned/projected), memoized so the fixed-point
  * optimizer converges and repeated queries reuse compiled variants.
  *
  * A process-wide object: in `local[*]` executors share the JVM with the
  * driver, which stands in for SQL Server's shared model cache.
  */
object ModelRegistry {

  private val models = new java.util.concurrent.ConcurrentHashMap[String, ModelPipeline]()
  /** (root id, predicates) → derived id */
  private val derivations = mutable.Map[(String, Set[ColPredicate]), String]()
  /** derived id → (root id, the predicates it was derived under) */
  private val lineage = mutable.Map[String, (String, Set[ColPredicate])]()
  private var variants = 0L

  /** Deploys `mp` under its id. Deploying a different pipeline under an id
    * drops the variants derived from the one it replaces.
    */
  def deploy(mp: ModelPipeline): Unit = synchronized {
    val old = models.put(mp.id, mp)
    if (old != null && !(old eq mp)) {
      val stale = lineage.collect { case (id, (root, _)) if root == mp.id => id }
      stale.foreach { id => models.remove(id); lineage.remove(id) }
      derivations.filterInPlace { case ((root, _), _) => root != mp.id }
    }
  }

  def get(id: String): ModelPipeline = {
    val mp = models.get(id)
    require(mp != null, s"model '$id' is not deployed")
    mp
  }

  def contains(id: String): Boolean = models.containsKey(id)

  def rootOf(id: String): String = synchronized(lineage.get(id).fold(id)(_._1))

  /** Specializes `baseId` for `predicates` (predicate-based pruning, then
    * model-projection pushdown; no predicates is projection alone) and
    * returns the derived model's id. A variant is derived from the root
    * model under its own predicates plus the new ones, and memoized by that
    * set, so specializing a variant again for the same predicates is a
    * no-op. A pipeline with a scaler, or whose model [[ModelPruner.reindex]]
    * cannot rewrite (an MLP), is returned unchanged.
    */
  def deriveFor(baseId: String, predicates: Seq[ColPredicate]): String = synchronized {
    val (root, basePreds) = lineage.getOrElse(baseId, (baseId, Set.empty[ColPredicate]))
    val rootMp = get(root)
    if (rootMp.scaler.nonEmpty || !ModelPruner.reindexable(rootMp.model)) baseId
    else {
      val preds = basePreds ++ predicates
      val id = derivations.getOrElseUpdate((root, preds), {
        variants += 1
        val id = s"$root#$variants"
        models.put(id, rootMp.optimizeFor(preds.toSeq)._1.copy(id = id))
        lineage(id) = (root, preds)
        id
      })
      val missing = get(id).inputCols.filterNot(get(baseId).inputCols.contains)
      if (missing.nonEmpty) throw new IllegalStateException(
        s"variant '$id' of '$root' reads ${missing.mkString(", ")}, which '$baseId' does not")
      id
    }
  }

  def clear(): Unit = synchronized { models.clear(); derivations.clear(); lineage.clear() }

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
