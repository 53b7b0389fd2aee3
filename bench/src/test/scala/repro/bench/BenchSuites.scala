package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

/** Benchmark suites — one per evaluation table. Each prints the table the
  * paper reports (recorded against the paper's numbers in EXPERIMENTS.md)
  * and asserts the qualitative claim (who wins, roughly by how much); the
  * absolute numbers depend on this substrate and are not asserted tightly.
  */
class T1PredicatePruningBench extends AnyFunSuite {
  test("T1: predicate-based model pruning (paper: DT -29%; LR ~2.1x, selectivity-independent)") {
    val Seq(tree, lr) = T1PredicatePruning.run(scoreRows = 100000)
    tree.print(); lr.print()
    // Interpreted traversal: the pruned-away splits were perfectly branch-
    // predicted, so the saving is small and noisy — assert non-regression.
    assert(tree.cellD(1, "time_ms") < tree.cellD(0, "time_ms") * 1.1,
      s"pruned tree slower: ${tree.render}")
    assert(tree.cell(1, "nodes").toInt < tree.cell(0, "nodes").toInt)
    // Dense LA representation (cost ∝ nodes, as in the paper's runtimes):
    // 273 → 99 nodes must show a solid prediction-time cut.
    assert(tree.cellD(3, "time_ms") < tree.cellD(2, "time_ms") * 0.7,
      s"LA-compiled pruning gain missing: ${tree.render}")
    // LR pruning gives a solid speedup at every selectivity, and the spread is small
    val speedups = (0 until 3).map(i => lr.cell(i, "speedup").dropRight(1).toDouble)
    assert(speedups.forall(_ > 1.15), s"speedups $speedups")
    assert(speedups.max / speedups.min < 2.0, s"selectivity-dependent: $speedups")
  }
}

class T2ProjectionPushdownBench extends AnyFunSuite {
  test("T2: model-projection pushdown (paper Fig 2(a): ~1.7x @ 41.75%, ~5.3x @ 80.96%)") {
    val t = T2ProjectionPushdown.run(scoreRows = 200000)
    t.print()
    val s1 = t.cell(0, "speedup").dropRight(1).toDouble
    val s2 = t.cell(1, "speedup").dropRight(1).toDouble
    assert(s1 > 1.2, s"41.75% sparsity speedup $s1")
    assert(s2 > 2.0, s"80.96% sparsity speedup $s2")
    assert(s2 > s1, "more sparsity must help more")
  }
}

class T3ModelClusteringBench extends AnyFunSuite {
  test("T3: model clustering (paper Fig 2(b): flight up to 54% reduction, hospital none)") {
    val Seq(flight, hospital) = T3ModelClustering.run(scoreRows = 150000)
    flight.print(); hospital.print()
    // structural effect (deterministic): compiled clusters read far fewer features
    val bestFeatures = (1 until flight.rows.size).map(i => flight.cellD(i, "mean_features")).min
    assert(bestFeatures < flight.cellD(0, "mean_features").toInt * 0.75,
      s"clusters should compile to fewer features: $bestFeatures")
    // timing effect (noisy across runs; 13-24% observed): require >8%
    val base = flight.cellD(0, "t_ms")
    val best = (1 until flight.rows.size).map(i => flight.cellD(i, "t_ms")).min
    assert(best < base * 0.92, s"clustering should cut inference time: base=$base best=$best")
    // mean features shrink monotonically-ish with k
    val feats = (1 until flight.rows.size).map(i => flight.cellD(i, "mean_features"))
    assert(feats.last < feats.head, s"features per cluster should shrink with k: $feats")
    // hospital: no meaningful benefit
    val hBase = hospital.cellD(0, "t_ms")
    val hClustered = hospital.cellD(1, "t_ms")
    assert(hClustered > hBase * 0.5, s"hospital should not benefit much: $hBase vs $hClustered")
  }
}

class T4ModelInliningBench extends AnyFunSuite with SparkSpec {
  test("T4: model inlining (paper Fig 2(c): ~17x; +pruning ~24.5x total)") {
    val t = T4ModelInlining.run(spark, rows = 300000)
    t.print()
    val inlineSpeedup = t.cell(3, "speedup_vs_sklearn").dropRight(1).toDouble
    val prunedSpeedup = t.cell(5, "speedup_vs_sklearn").dropRight(1).toDouble
    assert(inlineSpeedup > 4.0, s"inlining speedup vs out-of-DB framework: $inlineSpeedup")
    assert(prunedSpeedup > 2.0, s"pruned+inlined speedup on the cohort: $prunedSpeedup")
    // the bulk of the gain is avoiding the engine→framework boundary,
    // exactly the paper's observation
    val driverSpeedup = t.cell(1, "speedup_vs_sklearn").dropRight(1).toDouble
    assert(driverSpeedup > 1.0, s"staying in-process should already help: $driverSpeedup")
    // the benchmark's forest shape: inlined beats the per-row PREDICT operator
    val forestSpeedup = t.cell(7, "speedup_vs_sklearn").dropRight(1).toDouble
    assert(forestSpeedup > 1.0, s"inlined forest vs its PREDICT: $forestSpeedup")
  }
}

class T5NNTranslationBench extends AnyFunSuite {
  test("T5: NN translation (paper Fig 2(d): GPU advantage grows with batch size)") {
    val t = T5NNTranslation.run()
    t.print()
    // Substrate note (EXPERIMENTS.md): our baseline is compiled JVM tree
    // traversal, not interpreted scikit-learn, and our GEMM is scalar JVM
    // code, so absolute CPU-translation speedups invert. The reproducible
    // shape is the device-parallelism effect: the GPU's advantage over the
    // CPU LA engine starts near parity (launch overheads dominate) and
    // grows decisively with batch size.
    val gpuVsCpu = t.rows.map(r => r.last.dropRight(1).toDouble)
    assert(gpuVsCpu.last > 1.5, s"GPU should win at the top size: $gpuVsCpu")
    assert(gpuVsCpu.last > gpuVsCpu.head, s"GPU advantage must grow with size: $gpuVsCpu")
    assert(gpuVsCpu.head < 2.0, s"small batches should not amortize launch overheads: $gpuVsCpu")
  }
}

class T6IntegratedInferenceBench extends AnyFunSuite with SparkSpec {
  test("T6: ORT vs Raven vs Raven Ext (paper Fig 3)") {
    val tables = T6IntegratedInference.run(spark)
    tables.foreach(_.print())
    tables.foreach { t =>
      val n = t.rows.size - 1 // last data row is the sequential-raven row
      // (iii) at the top size, parallel Raven clearly beats single-threaded ORT
      val topSpeedup = t.cell(n - 1, "raven_vs_ort").dropRight(1).toDouble
      assert(topSpeedup > 1.5, s"${t.title}: parallel raven speedup $topSpeedup")
      // (iv) Raven Ext pays a constant startup overhead at small sizes
      val extSmall = t.cellD(0, "raven_ext_ms")
      val ortSmall = t.cellD(0, "ort_ms")
      assert(extSmall > ortSmall + 150, s"ext startup overhead missing: $extSmall vs $ortSmall")
      if (t.title.contains("RF")) {
        // (iii) on the compute-heavy model, forcing sequential execution
        // loses most of the parallel advantage (the MLP is too cheap per
        // row for partition parallelism to dominate its scan cost)
        val tSeq = t.cellD(n, "raven_ms")
        val tPar = t.cellD(n - 1, "raven_ms")
        assert(tSeq > tPar * 1.5, s"sequential raven should be much slower: $tSeq vs $tPar")
      }
    }
  }
}

class T7BatchingBench extends AnyFunSuite {
  test("T7: batch vs per-tuple inference (paper: ~10x)") {
    val t = T7Batching.run()
    t.print()
    // paper reports ~10x; our per-call overhead (JVM, no Python boundary) is
    // smaller, so the gap is smaller but still decisive
    val best = t.rows.map(_(2).dropRight(1).toDouble).max
    assert(best > 3.0, s"batching should give a large speedup, got $best")
  }
}
