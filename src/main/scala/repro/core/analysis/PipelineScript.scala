package repro.core.analysis

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.parser.CatalystSqlParser
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.types.{DoubleType, NumericType, StringType}
import repro.core.ir.SchemaCatalog
import repro.ml.ModelPipeline

import scala.util.Try
import scala.util.control.NonFatal

/** Static analysis of imperative model-pipeline scripts (§3.2) into the
  * Catalyst plans [[StaticAnalyzer]] builds for SQL.
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

  /** One plan per execution path (conditionals fork the analysis); `ir` is
    * unresolved, carries the pipelines it predicts with, and
    * [[repro.sparkext.Raven.run]] runs it.
    */
  final case class PathPlan(ir: LogicalPlan, pathCondition: Option[String])

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
  private sealed trait VType
  private final case class VTable(frame: Frame) extends VType
  private final case class VModel(pipeline: ModelPipeline) extends VType

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

  /** Analyze a script into Catalyst plans.
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

    def indentOf(s: String): Int = s.takeWhile(_ == ' ').length

    /** Analyze `ls` from `env`; one plan per execution path. `last` is the
      * last frame assigned, the result of a path that has no `return`.
      */
    def walk(ls: Vector[(String, Int)], env: Map[String, VType], last: Option[String],
             cond: Option[String]): Seq[PathPlan] = ls match {
      case (raw, lineNo) +: tail =>
        def table(v: String): Frame = env.get(v) match {
          case Some(VTable(f))  => f
          case Some(_: VModel)  => throw AnalysisError(s"'$v' is a model, expected a frame", lineNo)
          case None             => throw AnalysisError(s"undefined variable '$v'", lineNo)
        }
        def model(v: String): ModelPipeline = env.get(v) match {
          case Some(VModel(mp)) => mp
          case Some(_)          => throw AnalysisError(s"'$v' is not a model", lineNo)
          case None             => throw AnalysisError(s"undefined variable '$v'", lineNo)
        }
        def assign(v: String, f: Frame): Seq[PathPlan] = walk(tail, env + (v -> VTable(f)), Some(v), cond)

        raw.trim match {
          case IfRe(c) =>
            // Fork: the if-path runs the if-block, the else-path the optional
            // else-block; both continue with the rest of the script.
            val indent = indentOf(raw)
            def block(from: Vector[(String, Int)]) = from.takeWhile(l => indentOf(l._1) > indent)
            val ifBlock = block(tail)
            if (ifBlock.isEmpty) throw AnalysisError("empty if-block", lineNo)
            val (elseBlock, rest) = tail.drop(ifBlock.size) match {
              case (e, _) +: more if ElseRe.matches(e.trim) && indentOf(e) == indent =>
                val b = block(more)
                (b, more.drop(b.size))
              case more => (Vector.empty, more)
            }
            walk(ifBlock ++ rest, env, last, Some(cond.fold(c)(o => s"$o and $c"))) ++
              walk(elseBlock ++ rest, env, last, Some(cond.fold(s"not($c)")(o => s"$o and not($c)")))
          case ReadRe(v, t) =>
            if (!catalog.contains(t)) throw AnalysisError(s"unknown table '$t'", lineNo)
            assign(v, Frame.scan(t, catalog))
          case LoadModelRe(v, id) =>
            val mp = try modelStore(id) catch {
              case NonFatal(e) => throw AnalysisError(s"cannot load model '$id': ${e.getMessage}", lineNo).initCause(e)
            }
            walk(tail, env + (v -> VModel(mp)), last, cond)
          case FilterRe(v, src, srcRef, col, op, litRaw) =>
            if (src != srcRef)
              throw AnalysisError(s"filter frame mismatch: $src vs $srcRef", lineNo)
            val src2 = table(src)
            if (!src2.cols.contains(col))
              throw AnalysisError(s"no column '$col' in frame '$src'", lineNo)
            // Spark SQL reads the literal: a number as in a query, a quoted string as a string
            val lit = Try(CatalystSqlParser.parseExpression(litRaw)).toOption.collect {
              case l @ Literal(_, _: NumericType | StringType) => l
            }.getOrElse(throw AnalysisError(s"literal $litRaw is neither a number nor a quoted string", lineNo))
            assign(v, src2.where(Comparisons(op)(Frame.col(col), lit)))
          case ProjectRe(v, src, colsRaw) =>
            val src2 = table(src)
            val cols = colsRaw.split(",").map(_.trim.stripPrefix("\"").stripSuffix("\"")).toSeq
            cols.foreach(c => if (!src2.cols.contains(c))
              throw AnalysisError(s"no column '$c' in frame '$src'", lineNo))
            assign(v, src2.select(cols))
          case JoinRe(v, a, bV, lk, rkOpt) =>
            val l = table(a); val r = table(bV)
            val rk = Option(rkOpt).getOrElse(lk)
            if (!l.cols.contains(lk)) throw AnalysisError(s"no join key '$lk' in '$a'", lineNo)
            if (!r.cols.contains(rk)) throw AnalysisError(s"no join key '$rk' in '$bV'", lineNo)
            assign(v, l.join(r, lk, rk))
          case PredictRe(v, mv, dv) =>
            val mp = model(mv)
            val src = table(dv)
            val missing = mp.inputCols.filterNot(src.cols.contains)
            if (missing.nonEmpty)
              throw AnalysisError(s"frame '$dv' lacks model inputs: ${missing.mkString(",")}", lineNo)
            assign(v, src.predict(mp, "prediction"))
          case ReturnRe(v) =>
            Seq(PathPlan(table(v).plan, cond))
          case CallRe(v, fn, arg) =>
            // Unknown API call — wrap as a black-box UDF over all columns.
            val src = table(arg)
            assign(v, src.withColumn(s"${fn}_out", udf(fn, udfs.lookup(fn), src.cols)))
          case other =>
            throw AnalysisError(s"cannot parse statement: '$other'", lineNo)
        }
      case _ =>
        last.flatMap(env.get).collect { case VTable(f) => PathPlan(f.plan, cond) }.toSeq
    }

    val plans = walk(lines, Map.empty, None, None)
    if (plans.isEmpty) throw AnalysisError("script produces no frame", lines.lastOption.map(_._2).getOrElse(0))
    ScriptAnalysis(plans, (System.nanoTime() - t0) / 1000, fallbackToUdf = false)
  }

  private val Comparisons: Map[String, (Expression, Expression) => Expression] = Map(
    "==" -> (EqualTo(_, _)), "!=" -> ((l, r) => Not(EqualTo(l, r))), "<" -> (LessThan(_, _)),
    "<=" -> (LessThanOrEqual(_, _)), ">" -> (GreaterThan(_, _)), ">=" -> (GreaterThanOrEqual(_, _)))

  /** The opaque function `fn` as one Catalyst node: a Scala UDF over a
    * struct of the frame's columns, given to `fn` in frame order.
    */
  private def udf(name: String, fn: IndexedSeq[Any] => Any, cols: Seq[String]): ScalaUDF =
    ScalaUDF((r: Row) => fn(r.toSeq.toIndexedSeq) match {
      case n: java.lang.Number => n.doubleValue
      case other               => throw new IllegalArgumentException(s"UDF must return a number, got $other")
    }, DoubleType, Seq(CreateStruct(cols.map(Frame.col))), udfName = Some(name))
}
