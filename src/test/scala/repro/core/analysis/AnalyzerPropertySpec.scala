package repro.core.analysis

import org.apache.spark.sql.DataFrame
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.{SparkSpec, TestModels, TestTables}
import repro.sparkext.Raven

/** Random WHERE clauses of the dialect `analyzeSql` accepts: the analyzer's
  * plan, on the session with Raven's rules, returns exactly the rows and
  * scores of the same query written with `raven_predict` on the session
  * without them.
  */
class AnalyzerPropertySpec extends AnyFunSuite with SparkSpec {

  /** Literals at and beside the hand tree's thresholds (age 35, pregnant 0.5,
    * bp 140), and a category the gender encoder has not seen.
    */
  private val literals = Map(
    "age" -> Seq("34", "35", "36"),
    "pregnant" -> Seq("-0.5", "0", "0.5", "1", "1.5"),
    "bp" -> Seq("139", "140", "141"),
    "gender" -> Seq("'F'", "'M'", "'X'"),
  )

  private val comparison: Gen[String] = for {
    col     <- Gen.oneOf(literals.keys.toSeq)
    lit     <- Gen.oneOf(literals(col))
    op      <- Gen.oneOf("=", "<>", "<", "<=", ">", ">=")
    litLeft <- Gen.oneOf(true, false)
  } yield if (litLeft) s"$lit $op $col" else s"$col $op $lit"

  private val conjunction: Gen[String] = Gen.choose(1, 4).flatMap(Gen.listOfN(_, comparison)).map(_.mkString(" AND "))

  private def rows(df: DataFrame): Seq[(Long, Double)] =
    df.collect().map(r => r.getLong(0) -> r.getDouble(1)).sortBy(_._1).toSeq

  test("analyzed conjunctions score as raven_predict without Raven's rules") {
    val mp = TestModels.handTreePipeline
    Raven.deploy(mp)
    val prop = Prop.forAll(conjunction) { where =>
      val a = StaticAnalyzer.analyzeSql(s"SELECT patient_id, PREDICT(m) AS score FROM patients_all WHERE $where",
        TestTables.hospitalCatalog, Map("m" -> mp))
      rows(Raven.run(TestTables.optimized, a.ir)) == rows(TestTables.reference.sql(
        s"SELECT patient_id, ${Raven.predictSql(mp.id)} AS score FROM patients_all WHERE $where"))
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(30).withWorkers(1).withInitialSeed(Seed(20201L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result, Pretty.Params(1)))
  }
}
