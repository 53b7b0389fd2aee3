package repro.sparkext

import org.apache.spark.sql.{DataFrame, Encoders, Row}
import org.apache.spark.sql.types.{DoubleType, StructType}
import repro.ml.NNPipelineModel

/** Model execution over DataFrames. A classical pipeline is scored by the
  * same `raven_predict` expression SQL uses, so Raven's rules specialize
  * and inline it as they do a SQL query. NN-translated pipelines and opaque
  * UDFs run per partition, in batches of rows.
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
    * the OnnxLite runtime (LA path). The `NNPipelineModel` instance caches
    * its inference session, so passing a registry-held instance gives
    * session reuse across queries.
    */
  def predictNNBatch(df: DataFrame, nn: NNPipelineModel, outputCol: String): DataFrame =
    withPredictions(df, nn.inputCols, outputCol, DefaultBatchSize)(batch => nn.predictRawBatch(batch.toIndexedSeq))

  /** Append `outputCol` computed by an opaque row UDF (the fallback path). */
  def applyUdf(
      df: DataFrame,
      inputCols: Seq[String],
      outputCol: String,
      fn: IndexedSeq[Any] => Any,
  ): DataFrame =
    withPredictions(df, inputCols, outputCol, 1024)(batch => batch.map(r => anyToDouble(fn(r))).toArray)

  private def anyToDouble(v: Any): Double = v match {
    case d: Double => d
    case f: Float  => f.toDouble
    case i: Int    => i.toDouble
    case l: Long   => l.toDouble
    case other     => throw new IllegalArgumentException(s"UDF must return a number, got $other")
  }

  private def withPredictions(
      df: DataFrame,
      inputCols: Seq[String],
      outputCol: String,
      batchSize: Int,
  )(score: Seq[IndexedSeq[Any]] => Array[Double]): DataFrame = {
    val schema: StructType = df.schema.add(outputCol, DoubleType, nullable = false)
    val fieldIdx = inputCols.map(df.schema.fieldIndex).toArray
    df.mapPartitions { it: Iterator[Row] =>
      it.grouped(batchSize).flatMap { rows =>
        val feats = rows.map(r => fieldIdx.map(r.get).toIndexedSeq)
        val preds = score(feats)
        rows.iterator.zipWithIndex.map { case (r, i) =>
          Row.fromSeq(r.toSeq :+ preds(i))
        }
      }
    }(Encoders.row(schema))
  }
}
