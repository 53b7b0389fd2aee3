package repro.bench

import org.apache.spark.sql.SparkSession

/** SparkSession factory for the `main` methods of T4 and T6 (spark-submit
  * or plain `java` launch; mirrors the test harness settings).
  */
object JobSpark {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
}
