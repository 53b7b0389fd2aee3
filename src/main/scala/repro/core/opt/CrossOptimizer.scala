package repro.core.opt

import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import repro.core.ir.SchemaCatalog

/** The Cross Optimizer (§4) is Catalyst: Spark's own filter pushdown and
  * column pruning, and Raven's rules ([[repro.sparkext.RavenRules]]) for
  * model pruning, projection, inlining and join elimination, which rewrite
  * an analyzed plan as they do any SQL query. NN translation (§4.2) is the
  * model-level [[repro.ml.NNTranslator.translatePipeline]].
  */
object CrossOptimizer {

  /** Returns `ir`: the session's optimizer rewrites the plan when it runs. */
  @deprecated("run the plan as it is; Catalyst rewrites it", "0.6")
  def optimize(ir: LogicalPlan, catalog: SchemaCatalog): LogicalPlan = ir
}
