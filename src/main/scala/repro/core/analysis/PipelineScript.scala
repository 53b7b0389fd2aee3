package repro.core.analysis

import repro.core.ir._
import repro.ml.ModelPipeline

/** Static analysis of imperative model-pipeline scripts (§3.2).
  *
  * The paper analyzes Python scripts (lexing, parsing, scope extraction,
  * type inference, control/data-flow extraction) against a knowledge base
  * of data-science library APIs. Reproducing a Python front end is out of
  * scope, so the same analysis is implemented over "PyLite", a small
  * pandas-flavoured imperative language that preserves every structural
  * challenge the section discusses: straight-line dataflow translation,
  * conditionals (one plan per execution path), unknown calls (wrapped as
  * UDFs), and loops (fallback — not translatable).
  *
  * {{{
  * df = read("patient_info")
  * df = df[df.pregnant == 1]
  * df = df[["age", "pregnant", "bp"]]
  * m  = load_model("hospital_dt")
  * df = m.predict(df)
  * return df
  * }}}
  */
object PipelineScript {

  final case class AnalysisError(msg: String, line: Int)
      extends RuntimeException(s"line $line: $msg")

  /** One plan per execution path (conditionals fork the analysis). */
  final case class PathPlan(ir: IRNode, pathCondition: Option[String])

  final case class ScriptAnalysis(
      plans: Seq[PathPlan],
      elapsedMicros: Long,
      /** True when an untranslatable construct (a loop) forced a whole-script
        * UDF fallback; `plans` is then empty.
        */
      fallbackToUdf: Boolean,
  )

  /** Inferred variable types (dynamic language → a type per variable and
    * program point; conditionals can give a variable different frame
    * schemas per path).
    */
  sealed trait VType
  final case class VTable(ir: IRNode) extends VType
  final case class VModel(pipeline: ModelPipeline) extends VType

  /** Registered black-box functions usable from scripts; anything invoked
    * but unregistered still analyzes (as an opaque UDF that fails at run
    * time), mirroring how the paper wraps untranslatable code.
    */
  final class UdfRegistry {
    private val fns = scala.collection.mutable.Map[String, IndexedSeq[Any] => Any]()
    def register(name: String, fn: IndexedSeq[Any] => Any): this.type = { fns(name) = fn; this }
    def lookup(name: String): IndexedSeq[Any] => Any =
      fns.getOrElse(name, _ => throw new UnsupportedOperationException(s"opaque UDF '$name' is not executable"))
  }

  // ---- line grammar -------------------------------------------------------

  private val ReadRe      = """(\w+)\s*=\s*read\(\s*"([^"]+)"\s*\)""".r
  private val FilterRe    = """(\w+)\s*=\s*(\w+)\[\s*(\w+)\.(\w+)\s*(==|!=|<=|>=|<|>)\s*(.+?)\s*\]""".r
  private val ProjectRe   = """(\w+)\s*=\s*(\w+)\[\[\s*(.*?)\s*\]\]""".r
  private val JoinRe      = """(\w+)\s*=\s*join\(\s*(\w+)\s*,\s*(\w+)\s*,\s*"(\w+)"\s*(?:,\s*"(\w+)"\s*)?\)""".r
  private val LoadModelRe = """(\w+)\s*=\s*load_model\(\s*"([^"]+)"\s*\)""".r
  private val PredictRe   = """(\w+)\s*=\s*(\w+)\.predict\(\s*(\w+)\s*\)""".r
  private val CallRe      = """(\w+)\s*=\s*(\w+)\(\s*(\w+)\s*\)""".r
  private val IfRe        = """if\s+(.+?)\s*:""".r
  private val ElseRe      = """else\s*:""".r
  private val ReturnRe    = """return\s+(\w+)""".r
  private val ForRe       = """for\s+.*""".r
  private val WhileRe     = """while\s+.*""".r

  /** Analyze a script into IR plans.
    *
    * @param modelStore resolves `load_model` ids to deployed pipelines
    * @param udfs       registry for unknown function calls
    */
  def analyze(
      script: String,
      catalog: SchemaCatalog,
      modelStore: String => ModelPipeline,
      udfs: UdfRegistry = new UdfRegistry,
  ): ScriptAnalysis = {
    val t0 = System.nanoTime()
    val lines = script.linesIterator.zipWithIndex
      .map { case (l, i) => (l.replaceAll("#.*$", ""), i + 1) } // strip comments
      .filter(_._1.trim.nonEmpty)
      .toVector

    if (lines.exists(l => ForRe.matches(l._1.trim) || WhileRe.matches(l._1.trim))) {
      // Loops: not translatable to RA/LA (§3.2) — whole-script UDF fallback.
      return ScriptAnalysis(Nil, (System.nanoTime() - t0) / 1000, fallbackToUdf = true)
    }

    // One environment per live execution path.
    final case class Path(env: Map[String, VType], returned: Option[IRNode], cond: Option[String])
    var paths = Vector(Path(Map.empty, None, None))
    var lastAssigned: Option[String] = None

    def indentOf(s: String): Int = s.takeWhile(_ == ' ').length

    var i = 0
    while (i < lines.length) {
      val (raw, lineNo) = lines(i)
      val line = raw.trim

      def table(env: Map[String, VType], v: String): IRNode = env.get(v) match {
        case Some(VTable(ir)) => ir
        case Some(_: VModel)  => throw AnalysisError(s"'$v' is a model, expected a frame", lineNo)
        case None             => throw AnalysisError(s"undefined variable '$v'", lineNo)
      }
      def model(env: Map[String, VType], v: String): ModelPipeline = env.get(v) match {
        case Some(VModel(mp)) => mp
        case Some(_)          => throw AnalysisError(s"'$v' is not a model", lineNo)
        case None             => throw AnalysisError(s"undefined variable '$v'", lineNo)
      }

      line match {
        case IfRe(cond) =>
          // Fork: collect the if-block and optional else-block, then analyze
          // each branch per live path — one output plan per execution path.
          val baseIndent = indentOf(raw)
          val blockStart = i + 1
          var j = blockStart
          while (j < lines.length && indentOf(lines(j)._1) > baseIndent) j += 1
          val ifBlock = lines.slice(blockStart, j)
          var elseBlock = Vector.empty[(String, Int)]
          if (j < lines.length && ElseRe.matches(lines(j)._1.trim) && indentOf(lines(j)._1) == baseIndent) {
            val elseStart = j + 1
            var k = elseStart
            while (k < lines.length && indentOf(lines(k)._1) > baseIndent) k += 1
            elseBlock = lines.slice(elseStart, k)
            j = k
          }
          if (ifBlock.isEmpty) throw AnalysisError("empty if-block", lineNo)
          val rest = lines.drop(j)
          val subScriptIf = (ifBlock ++ rest).map(_._1.stripPrefix(" " * 4)).mkString("\n")
          val subScriptElse = (elseBlock ++ rest).map(_._1.stripPrefix(" " * 4)).mkString("\n")
          // Recursive analysis of each branch continuation per live path is
          // heavy machinery for a prototype; since paths only carry env/cond,
          // analyze branch scripts with the current (single) env snapshot.
          require(paths.size == 1, "nested conditionals are not supported")
          val env0 = paths.head.env
          def analyzeBranch(s: String, c: String): Seq[PathPlan] = {
            if (s.trim.isEmpty) Nil
            else analyzeBlock(s, env0, catalog, modelStore, udfs).map(p => p.copy(pathCondition = Some(c)))
          }
          val ifPlans = analyzeBranch(subScriptIf, cond)
          val elsePlans = analyzeBranch(subScriptElse, s"not($cond)")
          val elapsed = (System.nanoTime() - t0) / 1000
          return ScriptAnalysis(ifPlans ++ elsePlans, elapsed, fallbackToUdf = false)

        case _ =>
          paths = paths.map { path =>
            val env = path.env
            line match {
              case ReadRe(v, t) =>
                if (!catalog.contains(t)) throw AnalysisError(s"unknown table '$t'", lineNo)
                lastAssigned = Some(v)
                path.copy(env = env + (v -> VTable(IRScan(t, catalog.table(t).columns))))
              case LoadModelRe(v, id) =>
                path.copy(env = env + (v -> VModel(modelStore(id))))
              case FilterRe(v, src, srcRef, col, op, litRaw) =>
                if (src != srcRef)
                  throw AnalysisError(s"filter frame mismatch: $src vs $srcRef", lineNo)
                val src2 = table(env, src)
                if (!src2.outputCols.contains(col))
                  throw AnalysisError(s"no column '$col' in frame '$src'", lineNo)
                val lit: ScalarExpr =
                  if (litRaw.startsWith("\"") && litRaw.endsWith("\"")) StrLit(litRaw.substring(1, litRaw.length - 1))
                  else NumLit(java.lang.Double.parseDouble(litRaw))
                val sqlOp = op match { case "==" => "="; case "!=" => "<>"; case o => o }
                lastAssigned = Some(v)
                path.copy(env = env + (v -> VTable(IRFilter(Cmp(sqlOp, ColRef(col), lit), src2))))
              case ProjectRe(v, src, colsRaw) =>
                val src2 = table(env, src)
                val cols = colsRaw.split(",").map(_.trim.stripPrefix("\"").stripSuffix("\"")).toSeq
                cols.foreach(c => if (!src2.outputCols.contains(c))
                  throw AnalysisError(s"no column '$c' in frame '$src'", lineNo))
                lastAssigned = Some(v)
                path.copy(env = env + (v -> VTable(IRProject(cols.map(c => NamedExpr(c, ColRef(c))), src2))))
              case JoinRe(v, a, bV, lk, rkOpt) =>
                val l = table(env, a); val r = table(env, bV)
                val rk = Option(rkOpt).getOrElse(lk)
                if (!l.outputCols.contains(lk)) throw AnalysisError(s"no join key '$lk' in '$a'", lineNo)
                if (!r.outputCols.contains(rk)) throw AnalysisError(s"no join key '$rk' in '$bV'", lineNo)
                lastAssigned = Some(v)
                path.copy(env = env + (v -> VTable(IRJoin(l, r, lk, rk))))
              case PredictRe(v, mv, dv) =>
                val mp = model(env, mv)
                val src = table(env, dv)
                val missing = mp.inputCols.filterNot(src.outputCols.contains)
                if (missing.nonEmpty)
                  throw AnalysisError(s"frame '$dv' lacks model inputs: ${missing.mkString(",")}", lineNo)
                lastAssigned = Some(v)
                path.copy(env = env + (v -> VTable(IRPredict("prediction", mp, src))))
              case ReturnRe(v) =>
                path.copy(returned = Some(table(env, v)))
              case CallRe(v, fn, arg) =>
                // Unknown API call — wrap as a black-box UDF over all columns.
                val src = table(env, arg)
                lastAssigned = Some(v)
                path.copy(env = env +
                  (v -> VTable(IRUdf(fn, s"${fn}_out", src.outputCols, udfs.lookup(fn), src))))
              case other =>
                throw AnalysisError(s"cannot parse statement: '$other'", lineNo)
            }
          }
      }
      i += 1
    }

    val plans = paths.flatMap { p =>
      p.returned.orElse(lastAssigned.flatMap(v => p.env.get(v)).collect { case VTable(ir) => ir })
        .map(ir => PathPlan(ir, p.cond))
    }
    if (plans.isEmpty) throw AnalysisError("script produces no frame", lines.lastOption.map(_._2).getOrElse(0))
    ScriptAnalysis(plans, (System.nanoTime() - t0) / 1000, fallbackToUdf = false)
  }

  /** Analyze a branch continuation with a starting environment. */
  private def analyzeBlock(
      script: String,
      env0: Map[String, VType],
      catalog: SchemaCatalog,
      modelStore: String => ModelPipeline,
      udfs: UdfRegistry,
  ): Seq[PathPlan] = {
    // Prepend bindings as pseudo-reads is fragile; instead re-run analyze on
    // the branch with the environment injected via a wrapper store.
    val res = analyzeWithEnv(script, env0, catalog, modelStore, udfs)
    res.plans
  }

  private def analyzeWithEnv(
      script: String,
      env0: Map[String, VType],
      catalog: SchemaCatalog,
      modelStore: String => ModelPipeline,
      udfs: UdfRegistry,
  ): ScriptAnalysis = {
    // The line-grammar analyzer is stateless, so splice the environment by
    // synthesizing read/load statements only for vars actually present.
    // Frames in env0 may be arbitrary IR (not just scans), so we register
    // them under temp names in a shadow catalog, then substitute back.
    val shadow = new SchemaCatalog
    val substitutions = scala.collection.mutable.Map[String, IRNode]()
    val prefixLines = env0.toSeq.sortBy(_._1).map {
      case (v, VTable(ir)) =>
        val tmp = s"__env_$v"
        shadow.register(TableDef(tmp, ir.outputCols))
        substitutions(tmp) = ir
        s"""$v = read("$tmp")"""
      case (v, VModel(mp)) =>
        s"""$v = load_model("${mp.id}")"""
    }
    // also expose real catalog tables through the shadow
    val mergedStore: String => ModelPipeline = modelStore
    val fullScript = (prefixLines :+ script).mkString("\n")
    val res = analyze(fullScript, new MergedCatalog(shadow, catalog), mergedStore, udfs)
    val subs = substitutions.toMap
    res.copy(plans = res.plans.map(p => p.copy(ir = p.ir.transformUp {
      case IRScan(t, _) if subs.contains(t) => subs(t)
    })))
  }

  /** Catalog union used when splicing branch environments. */
  private final class MergedCatalog(a: SchemaCatalog, b: SchemaCatalog) extends SchemaCatalog {
    override def contains(name: String): Boolean = a.contains(name) || b.contains(name)
    override def table(name: String): TableDef = if (a.contains(name)) a.table(name) else b.table(name)
  }
}
