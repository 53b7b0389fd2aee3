package repro.core.opt

import repro.ml._

/** Model clustering (§4.1, Fig. 2(b)): cluster (a sample of) the data,
  * derive per-cluster feature invariants, and precompile a specialized
  * model per cluster. At inference time rows route to their cluster's
  * compiled model; rows violating the cluster's invariants fall back to
  * the original model (the paper's fallback for unseen data).
  *
  * Compilation is feature-level: within a cluster, one-hot categories that
  * never occur (and numerics pinned to a constant) are folded away, and
  * the model plus its featurization are re-compiled over the surviving
  * features — for the flight dataset this shrinks the 218-wide one-hot
  * space drastically, while hospital (binary categoricals, continuous
  * numerics) barely shrinks, reproducing the paper's contrast.
  */
object ModelClustering {

  /** One compiled cluster: the base pipeline specialized for the
    * invariants (original feature index → pinned value) that licensed it
    * and projected to the features it still reads. `scoreRaw` scores a
    * row laid out in the base pipeline's `baseCols`.
    */
  final case class CompiledCluster(pipeline: ModelPipeline, invariants: Map[Int, Double], baseCols: Seq[String]) {
    def numFeatures: Int = pipeline.pipeline.numFeatures

    val scoreRaw: IndexedSeq[Any] => Double = pipeline.scorerFor(baseCols)
  }

  final case class Clustered(
      base: ModelPipeline,
      km: KMeansModel,
      clusters: IndexedSeq[CompiledCluster],
      clusterFeatures: IndexedSeq[Int],
      compileMillis: Long,
      clusterMillis: Long,
  ) {
    private def routeFeats(feats: Array[Double]): Int =
      km.assign(clusterFeatures.map(feats).toArray)

    /** Route one raw row; falls back to the base model when the row
      * violates its cluster's invariants (e.g. an airport the cluster never
      * saw), per the paper's fallback rule.
      */
    def predictRaw(raw: IndexedSeq[Any]): Double = {
      val feats = base.pipeline.transform(raw)
      val c = clusters(routeFeats(feats))
      if (c.invariants.forall { case (i, v) => feats(i) == v }) c.scoreRaw(raw)
      else base.model.predict(feats)
    }

    def assign(raw: IndexedSeq[Any]): Int = routeFeats(base.pipeline.transform(raw))

    /** Mean compiled feature count across clusters — the compression the
      * optimization achieves (218 → far fewer for flight).
      */
    def meanFeatures: Double = clusters.map(_.numFeatures).sum.toDouble / clusters.size
  }

  /** Feature indices of every one-hot block — the default clustering
    * subspace. Clustering in raw feature space would be dominated by
    * wide-range numerics (e.g. flight distance) and never align clusters
    * with categorical values, which is where the specialization comes from.
    */
  def categoricalFeatures(pipe: FeaturePipeline): IndexedSeq[Int] =
    (pipe.numericCols.size until pipe.numFeatures).toIndexedSeq

  /** Cluster a sample and compile per-cluster models.
    *
    * @param clusterOn feature indices to cluster on (default: the one-hot
    *                  blocks); invariants are still mined over all features
    */
  def compile(
      base: ModelPipeline,
      sample: Array[IndexedSeq[Any]],
      k: Int,
      seed: Long = 11,
      clusterOn: Option[IndexedSeq[Int]] = None,
  ): Clustered = {
    require(base.scaler.isEmpty, "clustering through a scaler is not supported")
    val clusterFeatures = clusterOn.getOrElse {
      val cats = categoricalFeatures(base.pipeline)
      if (cats.nonEmpty) cats else (0 until base.pipeline.numFeatures).toIndexedSeq
    }
    val t0 = System.nanoTime()
    val feats = sample.map(base.pipeline.transform)
    val km = KMeans.fit(feats.map(f => clusterFeatures.map(f).toArray), k, seed = seed)
    val clusterMillis = (System.nanoTime() - t0) / 1000000

    val t1 = System.nanoTime()
    val d = base.pipeline.numFeatures
    val byCluster = feats.groupBy(f => km.assign(clusterFeatures.map(f).toArray))
    val clusters = (0 until k).map { c =>
      val invariants = byCluster.get(c).fold(Map.empty[Int, Double]) { members =>
        val mins = Array.fill(d)(Double.MaxValue)
        val maxs = Array.fill(d)(Double.MinValue)
        members.foreach { f =>
          var i = 0
          while (i < d) { if (f(i) < mins(i)) mins(i) = f(i); if (f(i) > maxs(i)) maxs(i) = f(i); i += 1 }
        }
        (0 until d).collect { case i if mins(i) == maxs(i) => i -> mins(i) }.toMap
      }
      val pruned = ModelPruner.prune(base.model, invariants.map { case (i, v) => i -> FeatureConstraint.equalTo(v) })
      val (pipe, projected, _) = ModelPruner.projectPipeline(base.pipeline, pruned)
      CompiledCluster(base.copy(pipeline = pipe, model = projected), invariants, base.inputCols)
    }
    val compileMillis = (System.nanoTime() - t1) / 1000000
    Clustered(base, km, clusters, clusterFeatures, compileMillis, clusterMillis)
  }
}
