package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._
import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.{LoggerConfig, Property}
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.expressions.codegen.CodeGenerator
import org.apache.spark.sql.catalyst.plans.logical.{Join, LogicalPlan}
import org.apache.spark.sql.execution.{FileSourceScanExec, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import repro.sparkext.PredictExpression

/** Counters read from the host engine (Spark) around each timed op.
  *
  * Jobs, stages and tasks are attributed to the op through a local
  * property set before the op runs; the listener bus is asynchronous, so
  * [[drain]] must run before the per-op figures are read.
  */
final class OpListener extends SparkListener {
  import OpListener._
  private val stageOp = new ConcurrentHashMap[Int, Int]()
  private val perOp = new ConcurrentHashMap[(Int, String), AtomicLong]()
  @volatile private var markerSeen = false

  private def add(op: Int, key: String, v: Long): Unit =
    perOp.computeIfAbsent((op, key), _ => new AtomicLong()).addAndGet(v)

  def get(op: Int, key: String): Long = Option(perOp.get((op, key))).map(_.get).getOrElse(0L)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val op = Option(e.properties).flatMap(p => Option(p.getProperty(OpProperty))).map(_.toInt).getOrElse(-1)
    if (op == MarkerOp) return
    if (op >= 0) {
      add(op, "jobs", 1)
      e.stageInfos.foreach(s => stageOp.put(s.stageId, op))
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    Option(stageOp.get(e.stageInfo.stageId)).foreach(op => add(op, "stages", 1))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageOp.get(e.stageId)).foreach { op =>
      add(op, "tasks", 1)
      if (e.taskMetrics != null) add(op, "run_ms", e.taskMetrics.executorRunTime)
    }

  /** Waits until every event posted before this call has been delivered. */
  def drain(spark: SparkSession): Unit = {
    val sc = spark.sparkContext
    val prev = sc.getLocalProperty(OpProperty)
    sc.setLocalProperty(OpProperty, MarkerOp.toString)
    markerSeen = false
    val marker = new SparkListener {
      override def onJobEnd(e: SparkListenerJobEnd): Unit = markerSeen = true
    }
    sc.addSparkListener(marker)
    spark.range(1).count()
    sc.setLocalProperty(OpProperty, prev)
    val deadline = System.nanoTime() + 10000000000L
    while (!markerSeen && System.nanoTime() < deadline) Thread.sleep(5)
    sc.removeSparkListener(marker)
  }
}

object OpListener {
  val OpProperty = "perfbench.op"
  private val MarkerOp = -7
}

/** Counts the host engine's whole-stage codegen fallbacks (a WARN logged by
  * `WholeStageCodegenExec` when the generated code does not compile), and
  * keeps them and the compile errors behind them off the console.
  */
final class CodegenLogCounter
    extends AbstractAppender("perfbench-codegen", null, null, true, Property.EMPTY_ARRAY) {
  val fallbacks = new AtomicLong()
  override def append(e: LogEvent): Unit =
    if (Option(e.getMessage).exists(_.getFormattedMessage.contains("Whole-stage codegen disabled")))
      fallbacks.incrementAndGet()
}

object CodegenLogCounter {
  private val Loggers = Seq(
    "org.apache.spark.sql.execution.WholeStageCodegenExec",
    "org.apache.spark.sql.catalyst.expressions.codegen.CodeGenerator",
  )

  def install(): CodegenLogCounter = {
    val ctx = LogManager.getContext(false).asInstanceOf[LoggerContext]
    val cfg = ctx.getConfiguration
    val app = new CodegenLogCounter
    app.start()
    cfg.addAppender(app)
    Loggers.foreach { name =>
      cfg.removeLogger(name)
      val lc = new LoggerConfig(name, Level.WARN, false)
      lc.addAppender(app, Level.WARN, null)
      cfg.addLogger(name, lc)
    }
    ctx.updateLoggers()
    app
  }
}

/** Point-in-time readings whose deltas are attributed to one op. */
final case class EngineReading(gcMs: Long, compiles: Long, compileNs: Long, fallbacks: Long) {
  def minus(o: EngineReading): EngineReading =
    EngineReading(gcMs - o.gcMs, compiles - o.compiles, compileNs - o.compileNs, fallbacks - o.fallbacks)
}

object EngineReading {
  def now(log: CodegenLogCounter): EngineReading = EngineReading(
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum,
    CodegenMetrics.METRIC_COMPILATION_TIME.getCount,
    CodeGenerator.compileTime,
    log.fallbacks.get,
  )
}

/** Counts read off a query's plans. */
object PlanStats extends AdaptiveSparkPlanHelper {

  private def predicts(plan: LogicalPlan): Seq[PredictExpression] =
    plan.collect { case p => p.expressions.flatMap(_.collect { case e: PredictExpression => e }) }.flatten

  private def joins(plan: LogicalPlan): Int = plan.collect { case j: Join => j }.size

  /** (remaining, inlined, derived variants, joins removed) between the analyzed and optimized plans. */
  def rewrites(analyzed: LogicalPlan, optimized: LogicalPlan): (Int, Int, Int, Int) = {
    val before = predicts(analyzed).size
    val after = predicts(optimized)
    (after.size, (before - after.size).max(0), after.count(_.modelId.contains('#')), joins(analyzed) - joins(optimized))
  }

  /** (files, bytes, columns) read by the file scans of an executed plan. */
  def scans(plan: SparkPlan): (Long, Long, Long) = {
    val ss = collect(plan) { case s: FileSourceScanExec => s }
    def metric(s: FileSourceScanExec, k: String): Long = s.metrics.get(k).map(_.value).getOrElse(0L)
    (ss.map(metric(_, "numFiles")).sum, ss.map(metric(_, "filesSize")).sum, ss.map(_.requiredSchema.size.toLong).sum)
  }
}
