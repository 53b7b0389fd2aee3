package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** The NN table harnesses at small sizes, so that their built-in
  * correctness checks run with the unit tests: T1a's pruned-vs-full checks
  * on the interpreted tree and on the pipeline graph, and T5's agreement of
  * the classic, CPU-graph and GPU-graph paths. No timing is asserted; the
  * bench suites assert the paper's claims at full size.
  */
class BenchHarnessSpec extends AnyFunSuite {

  test("T1a runs its pruned-vs-full checks at 500 rows") {
    val t = T1PredicatePruning.runTree(scoreRows = 500)
    assert(t.rows.size == 4)
    assert(t.cell(1, "nodes").toInt < t.cell(0, "nodes").toInt)
  }

  test("T5 runs its three-path agreement check at 1 000 rows") {
    assert(T5NNTranslation.run(sizes = Seq(1000)).rows.map(_.head) == Seq("1000"))
  }

  test("T7 scores 2 000 rows per tuple and in batches of 256") {
    assert(T7Batching.run(rows = 2000, batchSizes = Seq(1, 256)).rows.map(_.head) == Seq("1", "256"))
  }
}
