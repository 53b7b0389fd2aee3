package repro.core.ir

import org.scalatest.funsuite.AnyFunSuite

class IRSpec extends AnyFunSuite {

  private val scan = IRScan("t", Seq("a", "b", "c"))

  test("ScalarExpr renders portable SQL") {
    assert(Cmp("<", ColRef("a"), NumLit(3.5)).toSql == "(a < 3.5)")
    assert(Cmp("=", ColRef("a"), NumLit(3.0)).toSql == "(a = 3)")
    assert(Cmp("=", ColRef("c"), StrLit("x'y")).toSql == "(c = 'x''y')")
    assert(And(Cmp(">", ColRef("a"), NumLit(1)), Cmp("<>", ColRef("b"), NumLit(2))).toSql == "((a > 1) AND (b <> 2))")
  }

  test("conjunction joins predicates with AND") {
    val cs = Seq(Cmp("=", ColRef("a"), NumLit(1)), Cmp("=", ColRef("b"), NumLit(2)), Cmp("=", ColRef("c"), NumLit(3)))
    assert(ScalarExpr.conjunction(cs).get.toSql == "(((a = 1) AND (b = 2)) AND (c = 3))")
    assert(ScalarExpr.conjunction(Nil).isEmpty)
  }

  test("IR output columns propagate through operators") {
    val f = IRFilter(Cmp(">", ColRef("a"), NumLit(1)), scan)
    assert(f.outputCols == Seq("a", "b", "c"))
    val p = IRProject(Seq(NamedExpr("x", ColRef("a"))), f)
    assert(p.outputCols == Seq("x"))
    val j = IRJoin(scan, IRScan("u", Seq("k", "d")), "a", "k")
    assert(j.outputCols == Seq("a", "b", "c", "d")) // right key always dropped (equals left key)
    val j2 = IRJoin(scan, IRScan("u", Seq("a", "d")), "a", "a")
    assert(j2.outputCols == Seq("a", "b", "c", "d"))
  }

  test("categories match the paper's operator classes") {
    assert(scan.category == OpCategory.RA)
    val udf = IRUdf("f", "out", Seq("a"), _ => 1.0, scan)
    assert(udf.category == OpCategory.UDF)
    assert(udf.outputCols.last == "out")
  }

  test("treeString and describe render the plan") {
    val plan = IRProject(Seq(NamedExpr("a", ColRef("a"))),
      IRFilter(Cmp(">", ColRef("a"), NumLit(1)), scan))
    val s = plan.treeString
    assert(s.contains("Project") && s.contains("Filter((a > 1))") && s.contains("Scan(t"))
    assert(plan.collectNodes.size == 3)
  }

  test("SchemaCatalog registration, lookup, and FK integrity") {
    val cat = new SchemaCatalog()
      .register(TableDef("x", Seq("id", "v"), Some("id")))
      .register(TableDef("y", Seq("id", "w"), Some("id")))
      .registerFk(ForeignKey("x", "id", "y", "id"))
    assert(cat.contains("x") && !cat.contains("z"))
    assert(cat.table("x").primaryKey.contains("id"))
    assertThrows[IllegalArgumentException](cat.table("z"))
    assert(cat.isRowPreserving("x", "id", "y", "id"))
    assert(!cat.isRowPreserving("y", "id", "x", "id")) // FK not declared that way
    assert(!cat.isRowPreserving("x", "id", "y", "w"))  // not the PK
  }
}
