// Directed tests of the columnar expression evaluator (rex/rex_fuse.h).
//
// Golden-disassembly tests pin the exact programs the lowerer emits for the
// canonical shapes — an arithmetic chain, a NULL-propagating compare, an
// AND of range bounds folding into one interval test, widening/narrowing
// casts, string and bool compares, divisions by columns — so a lowering
// regression shows up as a readable bytecode diff, not a downstream
// mismatch. Register-reuse tests assert the Sethi-Ullman property
// directly: registers scale with tree *depth*, never tree *size*. Fallback
// tests lock the whole-tree rule: any unsupported operator anywhere in the
// tree (or a division that may raise below an AND/OR) makes Compile return
// nullptr, and FusedExpr evaluates such trees per row with the per-row
// oracle's results. The randomized differential against the oracle lives
// in rex_kernel_fuzz_test.cc; this file is the directed complement.

#include "rex/rex_fuse.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/arena.h"
#include "exec/column_batch.h"
#include "rex/rex_builder.h"
#include "rex/rex_interpreter.h"
#include "type/rel_data_type.h"
#include "type/value.h"

namespace calcite {
namespace {

// Input layout shared by every test, mirroring the fuzz fixture:
//   $0 id INT NOT NULL, $1 a INT?, $2 b INT?, $3 x DOUBLE?,
//   $4 s VARCHAR?, $5 f BOOLEAN?
class RexFuseTest : public ::testing::Test {
 protected:
  RexFuseTest() {
    int_t_ = tf_.CreateSqlType(SqlTypeName::kInteger);
    int_null_ = tf_.CreateSqlType(SqlTypeName::kInteger, -1, true);
    dbl_null_ = tf_.CreateSqlType(SqlTypeName::kDouble, -1, true);
    str_null_ = tf_.CreateSqlType(SqlTypeName::kVarchar, 32, true);
    bool_null_ = tf_.CreateSqlType(SqlTypeName::kBoolean, -1, true);
    row_type_ = tf_.CreateStructType(
        {"id", "a", "b", "x", "s", "f"},
        {int_t_, int_null_, int_null_, dbl_null_, str_null_, bool_null_});
    phys_ = {PhysType::kInt64,  PhysType::kInt64, PhysType::kInt64,
             PhysType::kDouble, PhysType::kString, PhysType::kBool};
  }

  RexNodePtr Call(OpKind op, std::vector<RexNodePtr> ops) {
    auto call = rex_.MakeCall(op, std::move(ops));
    EXPECT_TRUE(call.ok()) << call.status().ToString();
    return call.value();
  }

  std::shared_ptr<const FuseProgram> Compile(const RexNodePtr& node) {
    return FuseProgram::Compile(node, phys_);
  }

  void ExpectDisasm(const RexNodePtr& node, const std::string& want) {
    auto program = Compile(node);
    ASSERT_NE(program, nullptr) << node->ToString();
    EXPECT_EQ(program->Disassemble(), want) << node->ToString();
  }

  TypeFactory tf_;
  RexBuilder rex_;
  RelDataTypePtr int_t_, int_null_, dbl_null_, str_null_, bool_null_;
  RelDataTypePtr row_type_;
  std::vector<PhysType> phys_;
};

// ------------------------------ golden listings -----------------------------

TEST_F(RexFuseTest, DisassembleArithChain) {
  // ($0 + $1) * 2 > $2 — the canonical fused filter. The literal 2 folds
  // into the multiply (no broadcast load), and the whole tree runs in two
  // registers.
  RexNodePtr sum = Call(OpKind::kPlus, {rex_.MakeInputRef(0, int_null_),
                                        rex_.MakeInputRef(1, int_null_)});
  RexNodePtr mul = Call(OpKind::kTimes, {sum, rex_.MakeIntLiteral(2)});
  RexNodePtr pred =
      Call(OpKind::kGreaterThan, {mul, rex_.MakeInputRef(2, int_null_)});
  ExpectDisasm(pred,
               "r0 = col $0 i64\n"
               "r1 = col $1 i64\n"
               "r1 = add.i64 r0 r1\n"
               "r1 = mul.i64 r1 #2\n"
               "r0 = col $2 i64\n"
               "r0 = gt.i64 r1 r0\n"
               "ret r0 bool regs=2\n");
}

TEST_F(RexFuseTest, DisassembleNullPropagatingCompare) {
  // $3 > NULL stays on the general compare path: the NULL literal becomes a
  // typed all-NULL register and the strict compare's null-fold makes every
  // row NULL.
  RexNodePtr pred =
      Call(OpKind::kGreaterThan,
           {rex_.MakeInputRef(3, dbl_null_), rex_.MakeNullLiteral(dbl_null_)});
  ExpectDisasm(pred,
               "r0 = col $3 f64\n"
               "r1 = null.f64\n"
               "r1 = gt.f64 r0 r1\n"
               "ret r1 bool regs=2\n");

  // Mixed-width compare widens the int64 side first; the widen is the one
  // case that must NOT reuse its operand register in place (the i64 and f64
  // views would alias through differently-typed pointers).
  RexNodePtr mixed = Call(OpKind::kLessThan, {rex_.MakeInputRef(1, int_null_),
                                              rex_.MakeInputRef(3, dbl_null_)});
  ExpectDisasm(mixed,
               "r0 = col $1 i64\n"
               "r1 = col $3 f64\n"
               "r2 = i64tof64 r0\n"
               "r1 = lt.f64 r2 r1\n"
               "ret r1 bool regs=3\n");
}

TEST_F(RexFuseTest, DisassembleAndOfRangesFusesInterval) {
  // $1 >= 2 AND $5 AND $1 < 9: the two bounds pair across the unrelated
  // middle conjunct into a single inrange instruction — one load, one
  // interval test — instead of two compares plus an AND.
  RexNodePtr lo = Call(OpKind::kGreaterThanOrEqual,
                       {rex_.MakeInputRef(1, int_null_),
                        rex_.MakeIntLiteral(2)});
  RexNodePtr hi = Call(OpKind::kLessThan, {rex_.MakeInputRef(1, int_null_),
                                           rex_.MakeIntLiteral(9)});
  RexNodePtr pred =
      rex_.MakeAnd({lo, rex_.MakeInputRef(5, bool_null_), hi});
  ExpectDisasm(pred,
               "r0 = col $1 i64\n"
               "r0 = inrange.i64 r0 [2, 9)\n"
               "r1 = col $5 bool\n"
               "r1 = and r0 r1\n"
               "ret r1 bool regs=2\n");
}

TEST_F(RexFuseTest, DisassembleCasts) {
  ExpectDisasm(rex_.MakeCast(dbl_null_, rex_.MakeInputRef(1, int_null_)),
               "r0 = col $1 i64\n"
               "r1 = i64tof64 r0\n"
               "ret r1 f64 regs=2\n");
  ExpectDisasm(rex_.MakeCast(int_null_, rex_.MakeInputRef(3, dbl_null_)),
               "r0 = col $3 f64\n"
               "r1 = f64toi64 r0\n"
               "ret r1 i64 regs=2\n");
  // Identity casts vanish entirely: the program is a bare column load.
  ExpectDisasm(rex_.MakeCast(int_null_, rex_.MakeInputRef(1, int_null_)),
               "r0 = col $1 i64\n"
               "ret r0 i64 regs=1\n");
}

TEST_F(RexFuseTest, DisassembleStringAndBoolCompares) {
  RexNodePtr s = rex_.MakeInputRef(4, str_null_);
  RexNodePtr f = rex_.MakeInputRef(5, bool_null_);
  // Column vs literal folds the string constant into the compare; a
  // literal on the left flips the operator.
  ExpectDisasm(Call(OpKind::kEquals, {s, rex_.MakeStringLiteral("abc")}),
               "r0 = col $4 str\n"
               "r0 = eq.str r0 #\"abc\"\n"
               "ret r0 bool regs=1\n");
  ExpectDisasm(Call(OpKind::kLessThan, {rex_.MakeStringLiteral("abc"), s}),
               "r0 = col $4 str\n"
               "r0 = gt.str r0 #\"abc\"\n"
               "ret r0 bool regs=1\n");
  ExpectDisasm(Call(OpKind::kGreaterThanOrEqual, {s, s}),
               "r0 = col $4 str\n"
               "r1 = col $4 str\n"
               "r1 = ge.str r0 r1\n"
               "ret r1 bool regs=2\n");
  ExpectDisasm(Call(OpKind::kIsNull, {s}),
               "r0 = col $4 str\n"
               "r0 = isnull r0\n"
               "ret r0 bool regs=1\n");
  ExpectDisasm(Call(OpKind::kEquals, {f, rex_.MakeBoolLiteral(true)}),
               "r0 = col $5 bool\n"
               "r0 = eq.bool r0 #1\n"
               "ret r0 bool regs=1\n");
  RexNodePtr gt = Call(OpKind::kGreaterThan,
                       {rex_.MakeInputRef(1, int_null_), rex_.MakeIntLiteral(2)});
  ExpectDisasm(Call(OpKind::kNotEquals, {f, gt}),
               "r0 = col $5 bool\n"
               "r1 = col $1 i64\n"
               "r1 = gt.i64 r1 #2\n"
               "r1 = ne.bool r0 r1\n"
               "ret r1 bool regs=2\n");
  // A string-valued tree yields a string column.
  ExpectDisasm(rex_.MakeStringLiteral("abc"),
               "r0 = lit.str #\"abc\"\n"
               "ret r0 str regs=1\n");
}

TEST_F(RexFuseTest, DisassembleDivisionByColumn) {
  RexNodePtr a = rex_.MakeInputRef(1, int_null_);
  RexNodePtr b = rex_.MakeInputRef(2, int_null_);
  ExpectDisasm(Call(OpKind::kDivide, {a, b}),
               "r0 = col $1 i64\n"
               "r1 = col $2 i64\n"
               "r1 = div.i64 r0 r1\n"
               "ret r1 i64 regs=2\n");
  ExpectDisasm(Call(OpKind::kMod, {rex_.MakeInputRef(3, dbl_null_), a}),
               "r0 = col $3 f64\n"
               "r1 = col $1 i64\n"
               "r2 = i64tof64 r1\n"
               "r2 = mod.f64 r0 r2\n"
               "ret r2 f64 regs=3\n");
  // A zero literal divisor takes the raising instruction too.
  ExpectDisasm(Call(OpKind::kDivide, {a, rex_.MakeIntLiteral(0)}),
               "r0 = col $1 i64\n"
               "r1 = lit.i64 #0\n"
               "r1 = div.i64 r0 r1\n"
               "ret r1 i64 regs=2\n");
}

// ------------------------------ register reuse ------------------------------

TEST_F(RexFuseTest, RegistersScaleWithDepthNotSize) {
  // A left-deep chain of N adds stays at two registers no matter how long.
  RexNodePtr chain = rex_.MakeInputRef(0, int_null_);
  for (int i = 0; i < 40; ++i) {
    chain = Call(OpKind::kPlus, {chain, rex_.MakeInputRef(i % 3, int_null_)});
  }
  auto program = Compile(chain);
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->num_registers(), 2);
  EXPECT_EQ(program->instrs().size(), 81u);  // 41 loads + 40 adds

  // A balanced tree over 2^d leaves (post-order, left first) needs d + 1
  // registers — depth, not the 2^(d+1) - 1 node count.
  for (int depth = 1; depth <= 4; ++depth) {
    std::vector<RexNodePtr> level;
    for (int i = 0; i < (1 << depth); ++i) {
      level.push_back(rex_.MakeInputRef(i % 3, int_null_));
    }
    while (level.size() > 1) {
      std::vector<RexNodePtr> next;
      for (size_t i = 0; i + 1 < level.size(); i += 2) {
        next.push_back(Call(OpKind::kPlus, {level[i], level[i + 1]}));
      }
      level = std::move(next);
    }
    auto bal = Compile(level[0]);
    ASSERT_NE(bal, nullptr) << "depth " << depth;
    EXPECT_EQ(bal->num_registers(), depth + 1) << "depth " << depth;
    EXPECT_EQ(bal->instrs().size(), size_t{(2u << depth) - 1})
        << "depth " << depth;
  }
}

TEST_F(RexFuseTest, WideAndFoldsIncrementally) {
  // An N-way AND lowers one conjunct at a time into an accumulator, so its
  // register demand is that of the widest single conjunct — not N.
  std::vector<RexNodePtr> conjuncts;
  for (int i = 0; i < 12; ++i) {
    conjuncts.push_back(Call(OpKind::kGreaterThan,
                             {rex_.MakeInputRef(i % 3, int_null_),
                              rex_.MakeIntLiteral(i)}));
  }
  auto program = Compile(rex_.MakeAnd(std::move(conjuncts)));
  ASSERT_NE(program, nullptr);
  EXPECT_LE(program->num_registers(), 3);
}

// -------------------------------- fallback ----------------------------------

TEST_F(RexFuseTest, UnsupportedTreesDoNotCompile) {
  // Unsupported operator (ABS) anywhere in the tree: whole-tree fallback,
  // even when the rest would fuse.
  RexNodePtr abs = Call(OpKind::kAbs, {rex_.MakeInputRef(1, int_null_)});
  EXPECT_EQ(Compile(abs), nullptr);
  EXPECT_EQ(Compile(Call(OpKind::kGreaterThan, {abs, rex_.MakeIntLiteral(0)})),
            nullptr);

  // Incomparable classes: a string against a number.
  EXPECT_EQ(Compile(Call(OpKind::kEquals, {rex_.MakeInputRef(4, str_null_),
                                           rex_.MakeIntLiteral(1)})),
            nullptr);

  // Boxed columns never lower.
  EXPECT_EQ(FuseProgram::Compile(rex_.MakeInputRef(0, int_null_),
                                 {PhysType::kValue}),
            nullptr);

  // A division that may raise does not fuse below an AND or OR: blind
  // evaluation would raise on rows the per-row oracle short-circuits.
  RexNodePtr div = Call(OpKind::kDivide, {rex_.MakeInputRef(1, int_null_),
                                          rex_.MakeInputRef(2, int_null_)});
  RexNodePtr positive = Call(OpKind::kGreaterThan, {div, rex_.MakeIntLiteral(0)});
  RexNodePtr flag = rex_.MakeInputRef(5, bool_null_);
  EXPECT_EQ(Compile(rex_.MakeAnd({flag, positive})), nullptr);
  EXPECT_EQ(Compile(rex_.MakeOr({flag, positive})), nullptr);
  EXPECT_NE(Compile(positive), nullptr);
  // A non-zero literal divisor cannot raise and fuses anywhere.
  RexNodePtr halved = Call(OpKind::kGreaterThan,
                           {Call(OpKind::kDivide, {rex_.MakeInputRef(1, int_null_),
                                                   rex_.MakeIntLiteral(2)}),
                            rex_.MakeIntLiteral(0)});
  EXPECT_NE(Compile(rex_.MakeAnd({flag, halved})), nullptr);
}

TEST_F(RexFuseTest, FusedExprMatchesPerRowOracle) {
  // Rows with NULLs in every nullable column position.
  RowBatch rows;
  for (int i = 0; i < 50; ++i) {
    Row row;
    row.push_back(Value::Int(i));
    row.push_back(i % 5 == 0 ? Value::Null() : Value::Int(i % 7 - 3));
    row.push_back(i % 4 == 0 ? Value::Null() : Value::Int(i % 5 - 2));
    row.push_back(i % 6 == 0 ? Value::Null() : Value::Double(i * 0.25 - 3));
    row.push_back(i % 3 == 0 ? Value::Null() : Value::String("s"));
    row.push_back(i % 7 == 0 ? Value::Null() : Value::Bool(i % 2 == 0));
    rows.push_back(std::move(row));
  }
  auto cols = RowsToColumns(rows, *row_type_);
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  ColumnBatch in = cols.value();
  in.has_sel = true;
  for (uint32_t i = 0; i < rows.size(); i += 3) in.sel.push_back(i);

  // A fusible tree, one that runs per row (ABS inside), a plain string
  // reference (aliased) and string-valued trees.
  RexNodePtr fusible =
      Call(OpKind::kPlus, {rex_.MakeInputRef(1, int_null_),
                           rex_.MakeInputRef(2, int_null_)});
  RexNodePtr fallback =
      Call(OpKind::kPlus, {Call(OpKind::kAbs, {rex_.MakeInputRef(1, int_null_)}),
                           rex_.MakeInputRef(2, int_null_)});
  RexNodePtr str_ref = rex_.MakeInputRef(4, str_null_);
  RexNodePtr str_lit = rex_.MakeStringLiteral("lit");
  ASSERT_NE(Compile(fusible), nullptr);
  ASSERT_EQ(Compile(fallback), nullptr);

  for (const RexNodePtr& expr : {fusible, fallback, str_ref, str_lit}) {
    ColumnBatch got;
    got.arena = std::make_shared<Arena>();
    got.ShareStorage(in);
    got.num_rows = in.ActiveCount();
    // The evaluator is dropped before the column is read: a string
    // constant must stay alive with the batch.
    ASSERT_TRUE(FusedExpr(expr).AppendEvalColumn(in, &got).ok());
    ASSERT_EQ(got.cols.size(), 1u);
    for (size_t k = 0; k < in.ActiveCount(); ++k) {
      auto want = RexInterpreter::Eval(expr, rows[in.ActiveIndex(k)]);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got.cols[0].GetValue(k).ToString(), want.value().ToString())
          << expr->ToString() << " row " << k;
    }
  }
}

// Range fusion of pushed scan predicates rides the same lowering; lock the
// split logic here next to the bytecode tests it mirrors.
TEST_F(RexFuseTest, FuseScanRangesPairsBounds) {
  auto pred = [](ScanPredicate::Kind kind, int column, Value lit) {
    ScanPredicate p;
    p.kind = kind;
    p.column = column;
    p.literal = std::move(lit);
    return p;
  };
  ScanPredicateList preds;
  preds.push_back(
      pred(ScanPredicate::Kind::kGreaterThanOrEqual, 0, Value::Int(10)));
  preds.push_back(pred(ScanPredicate::Kind::kEquals, 2, Value::Int(1)));
  preds.push_back(pred(ScanPredicate::Kind::kLessThan, 0, Value::Int(20)));
  preds.push_back(
      pred(ScanPredicate::Kind::kGreaterThan, 1, Value::Double(0.5)));

  std::vector<FusedScanRange> ranges;
  ScanPredicateList rest;
  FuseScanRanges(std::move(preds), &ranges, &rest);

  // $0's bounds pair across the unrelated equality; the equality and the
  // partnerless $1 bound stay behind in order.
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].lower.column, 0);
  EXPECT_EQ(ranges[0].lower.kind, ScanPredicate::Kind::kGreaterThanOrEqual);
  EXPECT_EQ(ranges[0].upper.kind, ScanPredicate::Kind::kLessThan);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].kind, ScanPredicate::Kind::kEquals);
  EXPECT_EQ(rest[1].column, 1);

  // NULL-literal bounds never fuse (a NULL comparison passes nothing, and
  // the scalar NarrowByScanPredicate path owns that semantics).
  ScanPredicateList with_null;
  with_null.push_back(
      pred(ScanPredicate::Kind::kGreaterThanOrEqual, 0, Value::Null()));
  with_null.push_back(pred(ScanPredicate::Kind::kLessThan, 0, Value::Int(3)));
  ranges.clear();
  rest.clear();
  FuseScanRanges(std::move(with_null), &ranges, &rest);
  EXPECT_TRUE(ranges.empty());
  EXPECT_EQ(rest.size(), 2u);
}

}  // namespace
}  // namespace calcite
