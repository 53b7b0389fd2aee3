package repro.perfbench

import java.nio.file.{Files, Path}
import java.util.concurrent.{Callable, Executors}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import repro.data.HospitalData
import repro.data.HospitalData.Joined
import repro.ml._
import repro.onnx.GraphDef
import repro.runtime.OrtStandalone
import repro.sparkext.{Raven, RavenRules}

/** Input sizes. Interactive and model_churn query three parquet tables of
  * `tableRows` patients; bulk_score scans one joined parquet table of
  * `bulkRows` rows and exports `extRows` of them to the external runtime.
  */
final case class Sizes(
    tableRows: Int, bulkRows: Int, extRows: Int, trainRows: Int, versionTrainRows: Int,
    versionsPerFamily: Int, windows: Seq[Int])

object Sizes {
  val Full: Sizes = Sizes(tableRows = 100000, bulkRows = 100000, extRows = 20000, trainRows = 5000,
    versionTrainRows = 2000, versionsPerFamily = 24, windows = Seq(1000, 10000))
  /** For the benchmark's own smoke check. */
  val Tiny: Sizes = Sizes(tableRows = 3000, bulkRows = 6000, extRows = 1000, trainRows = 1500,
    versionTrainRows = 1000, versionsPerFamily = 4, windows = Seq(300, 2000))
}

/** A cohort filter of the Fig. 1 query: its SQL, the same predicate for
  * `ModelPipeline.optimizeFor`, and for computing reference answers.
  */
final case class Cohort(name: String, sql: Option[String], preds: Seq[ColPredicate], keep: Joined => Boolean)

object Cohort {
  val All: Seq[Cohort] = Seq(
    Cohort("pregnant_1", Some("pregnant = 1"), Seq(NumRange("pregnant", FeatureConstraint.equalTo(1))), _.pregnant == 1),
    Cohort("pregnant_0", Some("pregnant = 0"), Seq(NumRange("pregnant", FeatureConstraint.equalTo(0))), _.pregnant == 0),
    Cohort("age_gt_35", Some("age > 35"), Seq(NumRange("age", FeatureConstraint.greaterThan(35))), _.age > 35),
    Cohort("gender_f", Some("gender = 'F'"), Seq(CatEquals("gender", "F")), _.gender == "F"),
    Cohort("none", None, Nil, _ => true),
  )
  def Pregnant: Cohort = All.head
  def Unfiltered: Cohort = All.last
}

/** Everything a workload needs before its first timed op. */
final class Fixture(
    val spark: SparkSession,
    val dir: Path,
    /** The rows of the queried table, in `patient_id` order (`rows(i).patient_id == i`). */
    val rows: Array[Joined],
    /** Deployed pipelines by id: `dt`, `rf`, `mlp` and `rf_pruned` (the rf model). */
    val pipelines: Map[String, ModelPipeline],
    /** NN translations run through `RavenRuntime.predictNNBatch`: `rf_nn`, `mlp_nn`. */
    val graphs: Map[String, GraphDef],
    val nn: Map[String, NNPipelineModel],
    /** model_churn only: pre-trained versions per family. */
    val versions: Map[String, IndexedSeq[ModelPipeline]],
    /** Seconds spent per set-up phase. */
    val phases: mutable.LinkedHashMap[String, Double],
) {
  def phase[A](name: String)(body: => A): A = Fixture.phase(phases, name)(body)

  def close(): Unit = {
    spark.stop()
    repro.sparkext.ModelRegistry.clear()
    Fixture.deleteTree(dir)
  }
}

object Fixture {

  val Families: Seq[String] = Seq("dt", "rf", "mlp")
  /** The deployed models are trained on one fixed sample, so that every seed queries the same
    * models; the seed draws the tables, the query order and model_churn's versions.
    */
  val DeployedModelSample = 7101L
  /** The family each NN mode translates. */
  val NNOf: Map[String, String] = Map("rf_nn" -> "rf", "mlp_nn" -> "mlp")
  /** Deployment id of the forest that is queried only for the `pregnant = 1` cohort. It runs
    * under an id of its own: the derivation memo is keyed by the root model, so after an
    * unfiltered rf query the pruned variant would not be used.
    */
  val PrunedRf = "rf_pruned"
  /** Every execution mode: the three families through SQL `raven_predict`, the pruned forest,
    * the NN translations through `RavenRuntime.predictNNBatch`, and the mlp NN model run by the
    * external runtime (`OutOfProcess.run`).
    */
  val Modes: Seq[String] = Families ++ Seq(PrunedRf) ++ NNOf.keys.toSeq.sorted :+ "external"
  /** The family whose model a mode scores with. */
  def familyOf(mode: String): String =
    if (Families.contains(mode)) mode else if (mode == PrunedRf) "rf" else NNOf.getOrElse(mode, "mlp")

  /** Spark confs pinned by the benchmark (also stamped on every result). */
  def sparkConfs(cores: Int, dir: Path): Seq[(String, String)] = Seq(
    "spark.master" -> s"local[$cores]",
    "spark.sql.shuffle.partitions" -> (2 * cores).toString,
    "spark.sql.autoBroadcastJoinThreshold" -> (10L * 1024 * 1024).toString,
    "spark.ui.enabled" -> "false",
    // Spark's status store keeps this many finished jobs, stages and queries, so that the
    // retained heap does not grow with the number of ops a run gets through.
    "spark.ui.retainedJobs" -> "50",
    "spark.ui.retainedStages" -> "50",
    "spark.sql.ui.retainedExecutions" -> "50",
    "spark.driver.host" -> "127.0.0.1",
    "spark.local.dir" -> dir.resolve("spark-local").toString,
    "spark.sql.warehouse.dir" -> dir.resolve("warehouse").toString,
  )

  def session(cores: Int, dir: Path): SparkSession =
    sparkConfs(cores, dir).foldLeft(SparkSession.builder.appName("raven-perfbench")) {
      case (b, (k, v)) => b.config(k, v)
    }.getOrCreate()

  /** A model of one family trained on the sample `sampleSeed` draws. A
    * forest is the 10-tree depth-5 one, which must stay above the inlining
    * budget so that, unpruned, it runs as a per-row predict: one that does
    * not is retrained on the next sample.
    */
  def train(family: String, id: String, n: Int, sampleSeed: Long): ModelPipeline = {
    val (x, y) = HospitalData.featurized(HospitalData.localJoined(n, sampleSeed))
    family match {
      case "dt" =>
        ModelPipeline(id, HospitalData.pipeline, None,
          DecisionTree.train(x, y, isClassifier = false, maxDepth = 8, minSamplesLeaf = 20))
      case "rf" =>
        val rf = RandomForest.train(x, y, isClassifier = false, numTrees = 10, maxDepth = 5, minSamplesLeaf = 5,
          seed = sampleSeed)
        if (rf.totalNodes > Raven.DefaultInlineMaxNodes) ModelPipeline(id, HospitalData.pipeline, None, rf)
        else train(family, id, n, sampleSeed + 1)
      case "mlp" =>
        val scaler = StandardScaler.fit(x)
        val mlp = MlpModel.train(x.map(scaler.transform), y.map(v => if (v > 7) 1.0 else 0.0),
          hidden = Seq(32, 16), epochs = 2, seed = sampleSeed)
        ModelPipeline(id, HospitalData.pipeline, Some(scaler), mlp)
    }
  }

  def treeNodes(m: Model): Int = m match {
    case t: DecisionTreeModel => t.nodeCount
    case f: RandomForestModel => f.totalNodes
    case _                    => 0
  }

  /** Builds the workload's inputs under `dir`: parquet tables, trained and
    * deployed models, NN translations and (model_churn) model versions.
    */
  def build(workload: String, sizes: Sizes, seed: Long, cores: Int, dir: Path, tracer: Tracer): Fixture = {
    val phases = mutable.LinkedHashMap[String, Double]()
    def phase[A](name: String)(body: => A): A = Fixture.phase(phases, name)(body)
    Files.createDirectories(dir)
    val spark = phase("spark") {
      val s = session(cores, dir)
      Raven.install(s)
      s
    }
    val dataSeed = seed * 7919 + 13
    val n = if (workload == "bulk_score") sizes.bulkRows else sizes.tableRows
    val rows = phase("data") {
      if (workload == "bulk_score") {
        val p = dir.resolve("patients_all").toString
        HospitalData.joinedDf(spark, n, dataSeed).write.parquet(p)
        spark.read.parquet(p).createOrReplaceTempView("patients_all")
      } else {
        RavenRules.RavenIntegrity.declareRowPreserving("patient_id", "patient_id")
        Seq(
          "patient_info" -> HospitalData.patientInfo(spark, n, dataSeed),
          "blood_tests" -> HospitalData.bloodTests(spark, n, dataSeed),
          "prenatal_tests" -> HospitalData.prenatalTests(spark, n, dataSeed),
        ).foreach { case (name, df) =>
          val p = dir.resolve(name).toString
          df.write.parquet(p)
          spark.read.parquet(p).createOrReplaceTempView(name)
        }
      }
      HospitalData.localJoined(n, dataSeed)
    }

    val pipelines = phase("train") {
      val trained = trainAll(Families.map(f => (f, f, sizes.trainRows, DeployedModelSample)), cores)
      (trained :+ trained(Families.indexOf("rf")).copy(id = PrunedRf)).map(mp => mp.id -> mp).toMap
    }
    val (graphs, nn) = phase("deploy") {
      pipelines.values.foreach(mp => tracer.span("sparkext.deploy")(Raven.deploy(mp)))
      val graphs = NNOf.map { case (mode, fam) =>
        mode -> tracer.span("ml.translate")(NNTranslator.translatePipeline(pipelines(fam)))
      }
      OrtStandalone.saveModel(graphs("mlp_nn"), HospitalData.pipeline, dir.resolve("ext_model"))
      (graphs, graphs.map { case (mode, g) => mode -> NNPipelineModel(g, HospitalData.pipeline) })
    }

    // Each version is trained on its own seeded sample.
    val versions = phase("versions") {
      if (workload != "model_churn") Map.empty[String, IndexedSeq[ModelPipeline]]
      else trainAll(for (f <- Families; v <- 0 until sizes.versionsPerFamily)
          yield (f, s"$f@v$v", sizes.versionTrainRows, dataSeed + 1000 + 97L * v + Families.indexOf(f)), cores)
        .groupBy(_.id.takeWhile(_ != '@')).map { case (f, ms) => f -> ms.toIndexedSeq }
    }

    new Fixture(spark, dir, rows, pipelines, graphs, nn, versions, phases)
  }

  def phase[A](phases: mutable.Map[String, Double], name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    try body finally phases(name) = phases.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e9
  }

  /** Trains (family, id, rows, sample seed) specs in parallel, in order. */
  private def trainAll(specs: Seq[(String, String, Int, Long)], cores: Int): Seq[ModelPipeline] = {
    val pool = Executors.newFixedThreadPool(cores)
    try specs.map { case (f, id, n, seed) =>
      pool.submit(new Callable[ModelPipeline] { def call(): ModelPipeline = train(f, id, n, seed) })
    }.map(_.get)
    finally pool.shutdownNow()
  }

  def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val all = Files.walk(p).iterator().asScala.toSeq.reverse
      all.foreach(Files.deleteIfExists)
    }
}
