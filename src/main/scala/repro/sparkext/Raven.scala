package repro.sparkext

import org.apache.spark.sql.{DataFrame, Encoders, Row, SparkSession, classic}
import org.apache.spark.sql.catalyst.FunctionIdentifier
import org.apache.spark.sql.catalyst.expressions.{Expression, ExpressionInfo}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import repro.ml.ModelPipeline

/** Session-level installation of Raven: deploys the cross-optimizer rules
  * into Catalyst and registers the `raven_predict` SQL function, after
  * which inference queries are plain Spark SQL:
  *
  * {{{
  * Raven.install(spark)
  * Raven.deploy(pipeline)
  * spark.sql("SELECT *, raven_predict('hospital_dt', age, ..., gender) AS score FROM patients")
  * }}}
  */
object Raven {

  /** Read by nothing in the program: [[RavenRules.ModelInlining]] inlines
    * every tree and forest without a scaler, whatever its node count. Kept
    * for callers outside the program that still read it.
    */
  @deprecated("model inlining has no node budget", "0.7")
  val DefaultInlineMaxNodes = 512

  /** Adds the rules unless the session's own `extraOptimizations` already hold them. */
  def install(spark: SparkSession): Unit = synchronized {
    registerFunction(spark)
    if (!spark.experimental.extraOptimizations.contains(RavenRules.ModelSpecialization))
      spark.experimental.extraOptimizations ++= rules
  }

  /** Install only the runtime (`raven_predict` function), no optimizer
    * rules — the unoptimized baseline configuration.
    */
  def installRuntimeOnly(spark: SparkSession): Unit = registerFunction(spark)

  /** Raven's rules, plus the Catalyst rules that act on what they change: a
    * specialized predict may reference one join side only, and read fewer
    * columns.
    */
  val rules: Seq[org.apache.spark.sql.catalyst.rules.Rule[
      org.apache.spark.sql.catalyst.plans.logical.LogicalPlan]] = Seq(
    RavenRules.ModelSpecialization,
    RavenRules.ModelInlining,
    org.apache.spark.sql.catalyst.optimizer.PushDownPredicates,
    org.apache.spark.sql.catalyst.optimizer.ColumnPruning,
    org.apache.spark.sql.catalyst.optimizer.CollapseProject,
    RavenRules.JoinElimination,
  )

  private def registerFunction(spark: SparkSession): Unit = {
    val registry = spark.sessionState.functionRegistry
    val name = FunctionIdentifier("raven_predict")
    if (!registry.functionExists(name))
      registry.registerFunction(name, new ExpressionInfo(classOf[PredictExpression].getName, "raven_predict"),
        (args: Seq[Expression]) => PredictExpression.fromArgs(args))
  }

  def deploy(mp: ModelPipeline): Unit = ModelRegistry.deploy(mp)

  /** Runs a plan of the static analyzers (`StaticAnalyzer.analyzeSql`,
    * `PipelineScript.analyze`), whose predicts carry their pipelines, on
    * `spark`: resolves its tables from the session's catalog and returns its
    * rows. The session's optimizer, with Raven's rules if installed,
    * rewrites it as it does a SQL query.
    */
  def run(spark: SparkSession, plan: LogicalPlan): DataFrame = {
    val analyzed = spark.sessionState.executePlan(plan).analyzed
    new classic.Dataset[Row](spark.asInstanceOf[classic.SparkSession], analyzed, Encoders.row(analyzed.schema))
  }

  /** The SQL fragment invoking a deployed model over its input columns. */
  def predictSql(modelId: String): String = {
    val mp = ModelRegistry.get(modelId)
    s"raven_predict('$modelId', ${mp.inputCols.mkString(", ")})"
  }
}
