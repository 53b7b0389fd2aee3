package repro.sparkext

import org.apache.spark.sql.{DataFrame, Encoders, Row}
import org.apache.spark.sql.types.DoubleType
import repro.ml.NNPipelineModel

/** Model execution over DataFrames. A classical pipeline is scored by the
  * same `raven_predict` expression SQL uses, so Raven's rules specialize
  * and inline it as they do a SQL query. NN-translated pipelines run per
  * partition, in batches of rows.
  */
object RavenRuntime {

  val DefaultBatchSize = 4096

  /** Append `outputCol` with the deployed pipeline's predictions: the
    * `raven_predict` PREDICT operator, planned and optimized by the session.
    */
  def predictBatch(df: DataFrame, modelId: String, outputCol: String): DataFrame = {
    Raven.installRuntimeOnly(df.sparkSession)
    df.selectExpr("*", s"${Raven.predictSql(modelId)} AS $outputCol")
  }

  /** Append `outputCol` with NN-translated pipeline predictions executed by
    * the OnnxLite runtime (LA path). `nn` ships as a broadcast: in local
    * mode every task reads this instance, so its session serves every task
    * and every query given it.
    */
  def predictNNBatch(df: DataFrame, nn: NNPipelineModel, outputCol: String): DataFrame = {
    val schema = df.schema.add(outputCol, DoubleType, nullable = false)
    val fieldIdx = nn.inputCols.map(df.schema.fieldIndex).toArray
    val model = df.sparkSession.sparkContext.broadcast(nn)
    df.mapPartitions { it: Iterator[Row] =>
      it.grouped(DefaultBatchSize).flatMap { rows =>
        val preds = model.value.predictRawBatch(rows.map(r => fieldIdx.map(r.get).toIndexedSeq).toIndexedSeq)
        rows.iterator.zipWithIndex.map { case (r, i) => Row.fromSeq(r.toSeq :+ preds(i)) }
      }
    }(Encoders.row(schema))
  }
}
