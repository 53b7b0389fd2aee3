package repro.core.opt

import repro.core.ir._
import repro.ml._

/** The Cross Optimizer's IR-level operator transformation (§4.2): NN
  * translation, an explicit call. Every other rewrite is Catalyst's, on the
  * lowered plan: Spark's own filter pushdown and column pruning, and Raven's
  * rules ([[repro.sparkext.RavenRules]]) for model pruning, projection,
  * inlining and join elimination, so the IR and SQL paths share one plan
  * rewriter.
  */
object CrossOptimizer {

  /** Returns `ir`: IR plans lower unoptimized, and Catalyst rewrites them. */
  @deprecated("lower the IR as it is; Catalyst rewrites the lowered plan", "0.6")
  def optimize(ir: IRNode, catalog: SchemaCatalog): IRNode = ir

  /** NN translation: compile remaining Predict operators (featurizers
    * included) into OnnxLite LA graphs for execution by the NN runtime.
    */
  object NNTranslation {
    def apply(ir: IRNode): IRNode = ir.transformUp {
      case IRPredict(out, mp, child) if translatable(mp) =>
        IRNNPredict(out, NNPipelineModel(NNTranslator.translatePipeline(mp), mp.pipeline), child)
    }

    def translatable(mp: ModelPipeline): Boolean = mp.model match {
      case _: DecisionTreeModel | _: RandomForestModel | _: LinearModel | _: MlpModel => true
      case _ => false
    }
  }
}
