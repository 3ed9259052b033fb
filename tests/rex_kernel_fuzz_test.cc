// Randomized differential tests of the columnar expression evaluator
// (FusedExpr::AppendEvalColumn / NarrowSelection, rex/rex_fuse.h) against
// the per-row tree interpreter (RexInterpreter::Eval, the oracle): a small
// seeded random generator builds typed expression trees — arithmetic,
// comparison, logic, casts over columns with ~20% NULLs and NaN cells — and
// evaluates them over the typed column decomposition of the same rows,
// across batch sizes {1, 1023, 1024, 1025} and selection vectors of every
// shape (absent, empty, singleton, dense, sparse), under both SIMD dispatch
// modes, so fused bytecode programs and the per-row fallback are both
// diffed against row semantics. A directed ternary-NULL-semantics
// regression pack locks in the three-valued-logic corners the evaluator
// must preserve.
//
// The generator mixes in divisions by columns that can be zero, so an
// evaluation may fail: both sides must then raise the same error, or both
// return equal results. It also deliberately mixes fusible and unfusible
// operators (IN, LIKE, CASE, COALESCE, ABS, UPPER) so the per-row
// whole-tree fallback is fuzzed as hard as the bytecode programs.
//
// REX_FUZZ_ITERS=<k> multiplies every iteration count by k — the dedicated
// CI fuzz step runs with a raised count; the default keeps local runs fast.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "exec/arena.h"
#include "exec/column_batch.h"
#include "exec/simd.h"
#include "rex/rex_builder.h"
#include "rex/rex_fuse.h"
#include "rex/rex_interpreter.h"
#include "type/rel_data_type.h"
#include "type/value.h"

namespace calcite {
namespace {

// Column layout of the fuzz batches:
//   $0 id INT NOT NULL   (row index)
//   $1 a  INT?           (~20% NULL)
//   $2 b  INT?           (~20% NULL; zero in about 1 row in 30)
//   $3 x  DOUBLE?        (~20% NULL, ~5% NaN)
//   $4 s  VARCHAR?       (~20% NULL)
//   $5 f  BOOLEAN?       (~20% NULL)
//   $6 t  VARCHAR?       (~20% NULL)
//   $7 g  BOOLEAN?       (~20% NULL)
constexpr int kWidth = 8;

/// Equal results, with every NaN equal to every other (the sign of a NaN
/// produced by arithmetic depends on operand order).
bool SameValue(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double() && std::isnan(a.AsDouble()) &&
      std::isnan(b.AsDouble())) {
    return true;
  }
  Value x = a;
  Value y = b;
  return x.ToString() == y.ToString();
}

class RexKernelFuzzTest : public ::testing::Test {
 protected:
  /// Iteration scale factor: the dedicated CI fuzz step raises it via
  /// REX_FUZZ_ITERS=<k>; anything unset or non-positive means 1.
  static int FuzzScale() {
    const char* env = std::getenv("REX_FUZZ_ITERS");
    const int k = env != nullptr ? std::atoi(env) : 1;
    return k > 0 ? k : 1;
  }

  RexKernelFuzzTest() {
    int_t_ = tf_.CreateSqlType(SqlTypeName::kInteger);
    int_null_ = tf_.CreateSqlType(SqlTypeName::kInteger, -1, true);
    dbl_null_ = tf_.CreateSqlType(SqlTypeName::kDouble, -1, true);
    str_null_ = tf_.CreateSqlType(SqlTypeName::kVarchar, 32, true);
    bool_null_ = tf_.CreateSqlType(SqlTypeName::kBoolean, -1, true);
    row_type_ = tf_.CreateStructType(
        {"id", "a", "b", "x", "s", "f", "t", "g"},
        {int_t_, int_null_, int_null_, dbl_null_, str_null_, bool_null_,
         str_null_, bool_null_});
  }

  RowBatch MakeBatch(size_t n, std::mt19937* rng, int null_pct = 20) {
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<int64_t> small(-9, 20);
    std::uniform_real_distribution<double> real(-4.0, 8.0);
    std::uniform_int_distribution<int> word(0, 6);
    static const char* kWords[] = {"", "a", "ab", "abc", "s1", "s10", "zz"};
    auto maybe = [&](Value v) {
      return pct(*rng) < null_pct ? Value::Null() : std::move(v);
    };
    RowBatch batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Row row;
      row.push_back(Value::Int(static_cast<int64_t>(i)));
      row.push_back(maybe(Value::Int(small(*rng))));
      row.push_back(maybe(Value::Int(small(*rng))));
      row.push_back(maybe(Value::Double(
          pct(*rng) < 5 ? std::numeric_limits<double>::quiet_NaN()
                        : real(*rng))));
      row.push_back(maybe(Value::String(kWords[word(*rng)])));
      row.push_back(maybe(Value::Bool(pct(*rng) < 50)));
      row.push_back(maybe(Value::String(kWords[word(*rng)])));
      row.push_back(maybe(Value::Bool(pct(*rng) < 50)));
      batch.push_back(std::move(row));
    }
    return batch;
  }

  // ----------------------- random expression grammar -----------------------

  int Pick(std::mt19937* rng, int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(*rng);
  }

  RexNodePtr Ref(int i) { return rex_.MakeInputRef(row_type_, i); }

  RexNodePtr Call(OpKind op, std::vector<RexNodePtr> ops) {
    auto call = rex_.MakeCall(op, std::move(ops));
    EXPECT_TRUE(call.ok()) << call.status().ToString();
    return call.value();
  }

  /// A numeric leaf; `with_x` = false keeps the NaN-bearing $3 out (a NaN
  /// cast to INT is undefined behaviour in both engines).
  RexNodePtr NumLeaf(std::mt19937* rng, bool with_x) {
    switch (Pick(rng, 5)) {
      case 0:
        return Ref(0);
      case 1:
        return Ref(1);
      case 2:
        return Ref(2);
      case 3:
        if (with_x) return Ref(3);
        [[fallthrough]];
      default:
        return Pick(rng, 2) == 0
                   ? rex_.MakeIntLiteral(
                         std::uniform_int_distribution<int64_t>(-5, 10)(*rng))
                   : rex_.MakeDoubleLiteral(
                         std::uniform_real_distribution<double>(-3.0, 5.0)(
                             *rng));
    }
  }

  RexNodePtr GenNumeric(std::mt19937* rng, int depth, bool with_x = true) {
    if (depth <= 0) return NumLeaf(rng, with_x);
    switch (Pick(rng, 10)) {
      case 0:
      case 1: {  // + - *
        static const OpKind kOps[] = {OpKind::kPlus, OpKind::kMinus,
                                      OpKind::kTimes};
        return Call(kOps[Pick(rng, 3)], {GenNumeric(rng, depth - 1, with_x),
                                         GenNumeric(rng, depth - 1, with_x)});
      }
      case 2: {  // / and %, by a non-zero literal or by a divisor that can
                 // be zero ($2, an expression over it, or a zero literal)
        OpKind op = Pick(rng, 2) == 0 ? OpKind::kDivide : OpKind::kMod;
        RexNodePtr divisor;
        switch (Pick(rng, 4)) {
          case 0:
            divisor = Ref(2);
            break;
          case 1:
            divisor = GenNumeric(rng, depth - 1, with_x);
            break;
          case 2:
            divisor = rex_.MakeIntLiteral(0);
            break;
          default: {
            int64_t d = std::uniform_int_distribution<int64_t>(1, 7)(*rng);
            divisor = rex_.MakeIntLiteral(Pick(rng, 2) == 0 ? d : -d);
          }
        }
        return Call(op, {GenNumeric(rng, depth - 1, with_x), divisor});
      }
      case 3:  // unary minus
        return Call(OpKind::kUnaryMinus, {GenNumeric(rng, depth - 1, with_x)});
      case 4:  // single-step cast; a cast to INT never sees a NaN
        return Pick(rng, 2) == 0
                   ? rex_.MakeCast(int_null_,
                                   GenNumeric(rng, depth - 1, false))
                   : rex_.MakeCast(dbl_null_,
                                   GenNumeric(rng, depth - 1, with_x));
      case 5:  // ABS — outside the fused set (per-row fallback)
        return Call(OpKind::kAbs, {GenNumeric(rng, depth - 1, with_x)});
      case 6:  // CASE — per-row fallback; its arms may guard a division
        return Call(OpKind::kCase, {GenBool(rng, depth - 1),
                                    GenNumeric(rng, depth - 1, with_x),
                                    GenNumeric(rng, depth - 1, with_x)});
      case 7:  // COALESCE — per-row fallback
        return Call(OpKind::kCoalesce, {GenNumeric(rng, depth - 1, with_x),
                                        GenNumeric(rng, depth - 1, with_x)});
      default:
        return NumLeaf(rng, with_x);
    }
  }

  RexNodePtr StrLeaf(std::mt19937* rng) {
    switch (Pick(rng, 3)) {
      case 0:
        return Ref(4);
      case 1:
        return Ref(6);
      default: {
        static const char* kLits[] = {"", "a", "s1", "abc"};
        return rex_.MakeStringLiteral(kLits[Pick(rng, 4)]);
      }
    }
  }

  RexNodePtr GenString(std::mt19937* rng, int depth) {
    if (depth <= 0) return StrLeaf(rng);
    switch (Pick(rng, 4)) {
      case 0:  // numeric -> VARCHAR cast (per-row fallback)
        return rex_.MakeCast(str_null_, GenNumeric(rng, depth - 1));
      case 1:  // UPPER — per-row fallback
        return Call(OpKind::kUpper, {GenString(rng, depth - 1)});
      default:
        return StrLeaf(rng);
    }
  }

  RexNodePtr GenBool(std::mt19937* rng, int depth) {
    if (depth <= 0) {
      switch (Pick(rng, 3)) {
        case 0:
          return Ref(5);
        case 1:
          return Ref(7);
        default:
          return rex_.MakeBoolLiteral(Pick(rng, 2) == 0);
      }
    }
    static const OpKind kCmps[] = {
        OpKind::kEquals,      OpKind::kNotEquals,
        OpKind::kLessThan,    OpKind::kLessThanOrEqual,
        OpKind::kGreaterThan, OpKind::kGreaterThanOrEqual};
    const OpKind cmp = kCmps[Pick(rng, 6)];
    switch (Pick(rng, 11)) {
      case 0:
      case 1:  // numeric comparison
        return Call(cmp, {GenNumeric(rng, depth - 1),
                          GenNumeric(rng, depth - 1)});
      case 2:  // string comparison: column vs column or vs literal
        return Call(cmp, {GenString(rng, depth - 1),
                          GenString(rng, depth - 1)});
      case 3: {  // AND / OR over two or three operands
        std::vector<RexNodePtr> ops;
        int arity = 2 + Pick(rng, 2);
        for (int i = 0; i < arity; ++i) ops.push_back(GenBool(rng, depth - 1));
        return Pick(rng, 2) == 0 ? rex_.MakeAnd(std::move(ops))
                                 : rex_.MakeOr(std::move(ops));
      }
      case 4:  // NOT
        return Call(OpKind::kNot, {GenBool(rng, depth - 1)});
      case 5:  // IS [NOT] NULL over any column
        return Call(Pick(rng, 2) == 0 ? OpKind::kIsNull : OpKind::kIsNotNull,
                    {Ref(Pick(rng, kWidth))});
      case 6:  // IS TRUE / IS FALSE
        return Call(Pick(rng, 2) == 0 ? OpKind::kIsTrue : OpKind::kIsFalse,
                    {GenBool(rng, depth - 1)});
      case 7:  // bool-vs-bool comparison
        return Call(cmp, {GenBool(rng, depth - 1), GenBool(rng, depth - 1)});
      case 8:  // IN over literals — per-row fallback
        return Call(OpKind::kIn, {GenNumeric(rng, depth - 1),
                                  rex_.MakeIntLiteral(Pick(rng, 5)),
                                  rex_.MakeIntLiteral(Pick(rng, 20))});
      case 9: {  // LIKE — per-row fallback
        static const char* kPatterns[] = {"a%", "%1", "%b%", "s_"};
        return Call(OpKind::kLike, {GenString(rng, depth - 1),
                                    rex_.MakeStringLiteral(
                                        kPatterns[Pick(rng, 4)])});
      }
      default:
        return Ref(5);
    }
  }

  RexNodePtr GenAny(std::mt19937* rng, int depth) {
    switch (Pick(rng, 3)) {
      case 0:
        return GenNumeric(rng, depth);
      case 1:
        return GenBool(rng, depth);
      default:
        return GenString(rng, depth);
    }
  }

  // ------------------------- differential checks ---------------------------

  /// The selection shapes each expression is exercised under. nullptr (no
  /// selection) is represented by an empty optional.
  std::vector<std::optional<SelectionVector>> SelectionShapes(size_t n) {
    std::vector<std::optional<SelectionVector>> shapes;
    shapes.emplace_back(std::nullopt);          // absent: all rows
    shapes.emplace_back(SelectionVector{});     // empty
    if (n > 0) {
      shapes.emplace_back(
          SelectionVector{static_cast<uint32_t>(n / 2)});  // singleton
      SelectionVector dense;
      SelectionVector sparse;
      for (uint32_t i = 0; i < n; ++i) {
        if (i % 7 != 0) dense.push_back(i);
        if (i % 13 == 0) sparse.push_back(i);
      }
      shapes.emplace_back(std::move(dense));
      shapes.emplace_back(std::move(sparse));
    }
    return shapes;
  }

  static SelectionVector Candidates(const std::optional<SelectionVector>& s,
                                    size_t n) {
    if (s.has_value()) return *s;
    SelectionVector all(n);
    for (uint32_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }

  /// Decomposes `batch` into a typed ColumnBatch (the columnar engine's
  /// native input) using the fixture row type.
  ColumnBatch ToColumns(const RowBatch& batch) {
    auto cols = RowsToColumns(batch, *row_type_);
    EXPECT_TRUE(cols.ok()) << cols.status().ToString();
    return std::move(cols.value());
  }

  /// FusedExpr::AppendEvalColumn vs per-row Eval over the active rows,
  /// under both kernel dispatch modes. Either both fail with the same
  /// error, or every cell matches.
  void CheckColumnarEval(const RexNodePtr& expr, const ColumnBatch& base,
                         const RowBatch& rows, const SelectionVector* sel,
                         const std::string& label) {
    ColumnBatch in = base;  // shallow: shares the typed column storage
    if (sel != nullptr) {
      in.sel = *sel;
      in.has_sel = true;
    }
    const size_t n = in.ActiveCount();
    std::vector<Value> want;
    Status want_status;
    for (size_t k = 0; k < n && want_status.ok(); ++k) {
      auto v = RexInterpreter::Eval(expr, rows[in.ActiveIndex(k)]);
      if (v.ok()) {
        want.push_back(std::move(v).value());
      } else {
        want_status = v.status();
      }
    }
    for (bool enable_simd : {false, true}) {
      simd::ScopedDispatch dispatch(enable_simd);
      ColumnBatch out;
      out.arena = std::make_shared<Arena>();
      out.ShareStorage(in);
      out.num_rows = n;
      Status status = FusedExpr(expr).AppendEvalColumn(in, &out);
      const std::string where = label + " simd=" +
                                std::to_string(enable_simd) + " expr " +
                                expr->ToString();
      ASSERT_EQ(status.ToString(), want_status.ToString()) << where;
      if (!status.ok()) continue;
      ASSERT_EQ(out.cols.size(), 1u) << where;
      for (size_t k = 0; k < n; ++k) {
        Value got = out.cols[0].GetValue(k);
        ASSERT_TRUE(SameValue(got, want[k]))
            << where << " row " << k << ": " << got.ToString() << " vs "
            << want[k].ToString();
      }
    }
  }

  /// The filter semantics FusedExpr::NarrowSelection implements, per row:
  /// a top-level AND passes when its conjuncts pass in order, later ones
  /// evaluated only while the earlier ones pass; anything else passes
  /// when EvalPredicate says TRUE.
  Result<bool> OraclePasses(const RexNodePtr& pred, const Row& row) {
    const RexCall* call = AsCall(pred);
    if (call == nullptr || call->op() != OpKind::kAnd) {
      return RexInterpreter::EvalPredicate(pred, row);
    }
    for (const RexNodePtr& conjunct : call->operands()) {
      CALCITE_ASSIGN_OR_RETURN(bool pass, OraclePasses(conjunct, row));
      if (!pass) return false;
    }
    return true;
  }

  /// FusedExpr::NarrowSelection vs the per-row filter oracle over the same
  /// candidates, under both kernel dispatch modes.
  void CheckColumnarNarrow(const RexNodePtr& pred, const ColumnBatch& base,
                           const RowBatch& rows,
                           const SelectionVector& candidates,
                           const std::string& label) {
    SelectionVector want;
    Status want_status;
    for (uint32_t idx : candidates) {
      auto pass = OraclePasses(pred, rows[idx]);
      if (!pass.ok()) {
        want_status = pass.status();
        break;
      }
      if (pass.value()) want.push_back(idx);
    }
    for (bool enable_simd : {false, true}) {
      simd::ScopedDispatch dispatch(enable_simd);
      SelectionVector got = candidates;
      Status status = FusedExpr(pred).NarrowSelection(base, &got);
      const std::string where = label + " simd=" +
                                std::to_string(enable_simd) + " pred " +
                                pred->ToString();
      ASSERT_EQ(status.ToString(), want_status.ToString()) << where;
      if (status.ok()) ASSERT_EQ(got, want) << where;
    }
  }

  TypeFactory tf_;
  RexBuilder rex_;
  RelDataTypePtr int_t_, int_null_, dbl_null_, str_null_, bool_null_;
  RelDataTypePtr row_type_;
};

TEST_F(RexKernelFuzzTest, ColumnarEvalMatchesPerRowOracle) {
  std::mt19937 rng(20260807);
  // 1025 straddles the fused interpreter's block size (kFuseBlockRows =
  // 1024): a full block plus a 1-row tail.
  for (size_t n : {size_t{1}, size_t{1023}, size_t{1024}, size_t{1025}}) {
    RowBatch batch = MakeBatch(n, &rng);
    ColumnBatch cols = ToColumns(batch);
    auto shapes = SelectionShapes(n);
    for (int iter = 0; iter < 60 * FuzzScale(); ++iter) {
      RexNodePtr expr = GenAny(&rng, 3);
      for (size_t s = 0; s < shapes.size(); ++s) {
        const SelectionVector* sel =
            shapes[s].has_value() ? &*shapes[s] : nullptr;
        CheckColumnarEval(expr, cols, batch, sel,
                          "n=" + std::to_string(n) + " iter=" +
                              std::to_string(iter) + " sel=" +
                              std::to_string(s));
      }
    }
  }
}

TEST_F(RexKernelFuzzTest, ColumnarNarrowSelectionMatchesPerRowOracle) {
  std::mt19937 rng(135792468);
  for (size_t n : {size_t{1}, size_t{1023}, size_t{1024}, size_t{1025}}) {
    RowBatch batch = MakeBatch(n, &rng);
    ColumnBatch cols = ToColumns(batch);
    auto shapes = SelectionShapes(n);
    for (int iter = 0; iter < 60 * FuzzScale(); ++iter) {
      RexNodePtr pred = GenBool(&rng, 3);
      for (size_t s = 0; s < shapes.size(); ++s) {
        CheckColumnarNarrow(pred, cols, batch, Candidates(shapes[s], n),
                            "n=" + std::to_string(n) + " iter=" +
                                std::to_string(iter) + " sel=" +
                                std::to_string(s));
      }
    }
  }
}

// Directed tail/alignment sweep for the SIMD dispatch: batch sizes chosen to
// straddle every vector-block boundary (4-lane groups, 8-entry refill bytes,
// 32-byte mask blocks) crossed with null densities 0% (columns carry no
// bytemap at all), 20%, and 100% (all-null bytemaps). Each expression runs
// under both dispatch modes via the Check helpers.
TEST_F(RexKernelFuzzTest, SimdTailAndAlignmentShapes) {
  std::mt19937 rng(424242);
  const size_t sizes[] = {1, 7, 15, 16, 17, 1023, 1024, 1025};
  for (size_t n : sizes) {
    for (int null_pct : {0, 20, 100}) {
      RowBatch batch = MakeBatch(n, &rng, null_pct);
      ColumnBatch cols = ToColumns(batch);
      auto shapes = SelectionShapes(n);
      const int iters = (n >= 1023 ? 6 : 12) * FuzzScale();
      for (int iter = 0; iter < iters; ++iter) {
        RexNodePtr expr = GenAny(&rng, 3);
        RexNodePtr pred = GenBool(&rng, 3);
        for (size_t s = 0; s < shapes.size(); ++s) {
          const std::string label = "n=" + std::to_string(n) + " nulls=" +
                                    std::to_string(null_pct) + " iter=" +
                                    std::to_string(iter) + " sel=" +
                                    std::to_string(s);
          const SelectionVector* sel =
              shapes[s].has_value() ? &*shapes[s] : nullptr;
          CheckColumnarEval(expr, cols, batch, sel, label);
          CheckColumnarNarrow(pred, cols, batch, Candidates(shapes[s], n),
                              label);
        }
      }
    }
  }
}

// A division whose divisor can be zero raises exactly where the per-row
// oracle does: unguarded it fails, while a guard the oracle short-circuits
// — an earlier AND conjunct, a CASE arm — keeps it from raising.
TEST_F(RexKernelFuzzTest, GuardedDivisionDoesNotRaise) {
  std::mt19937 rng(31337);
  const size_t n = 1025;
  RowBatch batch = MakeBatch(n, &rng);
  size_t zero_divisors = 0;
  for (const Row& row : batch) {
    if (!row[1].IsNull() && !row[2].IsNull() && row[2].AsInt() == 0) {
      ++zero_divisors;
    }
  }
  ASSERT_GT(zero_divisors, 0u);
  ColumnBatch cols = ToColumns(batch);
  RexNodePtr zero = rex_.MakeIntLiteral(0);
  RexNodePtr div = Call(OpKind::kDivide, {Ref(1), Ref(2)});
  RexNodePtr guarded = rex_.MakeAnd(
      {Call(OpKind::kNotEquals, {Ref(2), zero}),
       Call(OpKind::kGreaterThan, {div, rex_.MakeIntLiteral(1)})});
  RexNodePtr case_guard = Call(
      OpKind::kCase, {Call(OpKind::kEquals, {Ref(2), zero}), zero, div});
  for (size_t s = 0; s < SelectionShapes(n).size(); ++s) {
    const auto shape = SelectionShapes(n)[s];
    const std::string label = "guard sel=" + std::to_string(s);
    CheckColumnarNarrow(guarded, cols, batch, Candidates(shape, n), label);
    CheckColumnarEval(case_guard, cols, batch,
                      shape.has_value() ? &*shape : nullptr, label);
    CheckColumnarEval(div, cols, batch, shape.has_value() ? &*shape : nullptr,
                      label);
  }
  SelectionVector all = Candidates(std::nullopt, n);
  EXPECT_TRUE(FusedExpr(guarded).NarrowSelection(cols, &all).ok());
  ColumnBatch out;
  out.arena = std::make_shared<Arena>();
  out.ShareStorage(cols);
  out.num_rows = n;
  EXPECT_TRUE(FusedExpr(case_guard).AppendEvalColumn(cols, &out).ok());
  Status unguarded = FusedExpr(div).AppendEvalColumn(cols, &out);
  EXPECT_FALSE(unguarded.ok());
  EXPECT_NE(unguarded.message().find("division by zero"), std::string::npos);
}

// The per-row fallbacks box only the columns an expression references.
// Over a wide batch — five fixture batches side by side, the shape of a
// lifted join row — a CASE around LIKE and an OR around LIKE must still
// match the per-row oracle, and a reference past the batch width must still
// raise Eval's out-of-range error.
TEST_F(RexKernelFuzzTest, WideBatchFallbacksMatchPerRowOracle) {
  std::mt19937 rng(5511);
  constexpr size_t kCopies = 5;
  const size_t width = row_type_->fields().size();
  std::vector<std::string> names;
  std::vector<RelDataTypePtr> types;
  for (size_t c = 0; c < kCopies; ++c) {
    for (const auto& field : row_type_->fields()) {
      names.push_back(field.name + std::to_string(c));
      types.push_back(field.type);
    }
  }
  auto wide_type = tf_.CreateStructType(names, types);
  const size_t n = 1025;
  RowBatch rows(n);
  for (size_t c = 0; c < kCopies; ++c) {
    RowBatch part = MakeBatch(n, &rng);
    for (size_t i = 0; i < n; ++i) {
      rows[i].insert(rows[i].end(), part[i].begin(), part[i].end());
    }
  }
  auto built = RowsToColumns(rows, *wide_type);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ColumnBatch& base = built.value();
  auto ref = [&](size_t copy, size_t col) {
    return rex_.MakeInputRef(wide_type, static_cast<int>(copy * width + col));
  };
  auto like = [&](RexNodePtr operand, const char* pattern) {
    return Call(OpKind::kLike,
                {std::move(operand), rex_.MakeStringLiteral(pattern)});
  };

  RexNodePtr when =
      Call(OpKind::kCase, {like(ref(4, 4), "s1%"), ref(4, 1), ref(1, 1)});
  RexNodePtr gt =
      Call(OpKind::kGreaterThan, {ref(4, 3), rex_.MakeDoubleLiteral(1.0)});
  RexNodePtr pred = rex_.MakeOr({like(ref(1, 4), "a%"), gt});
  for (size_t s = 0; s < SelectionShapes(n).size(); ++s) {
    const auto shape = SelectionShapes(n)[s];
    const std::string label = "wide sel=" + std::to_string(s);
    CheckColumnarEval(when, base, rows, shape.has_value() ? &*shape : nullptr,
                      label);
    CheckColumnarNarrow(pred, base, rows, Candidates(shape, n), label);
  }

  // $50 is past the 40-column batch: both fallbacks report it.
  RexNodePtr far = rex_.MakeInputRef(50, str_null_);
  ColumnBatch out;
  out.arena = std::make_shared<Arena>();
  out.ShareStorage(base);
  out.num_rows = base.ActiveCount();
  EXPECT_FALSE(
      FusedExpr(Call(OpKind::kUpper, {far})).AppendEvalColumn(base, &out).ok());
  SelectionVector sel = {0, 1, 2};
  EXPECT_FALSE(FusedExpr(like(far, "x%")).NarrowSelection(base, &sel).ok());
}

// --------------------- ternary NULL semantics pack --------------------------
//
// Directed regressions for the three-valued-logic corners the evaluator
// must preserve; the per-row interpreter is the oracle, and the expected
// truth-table entries are asserted explicitly so an oracle bug cannot hide
// a kernel bug.

class TernaryNullTest : public RexKernelFuzzTest {
 protected:
  /// `row` padded with NULLs to the fixture's row width.
  Row Padded(Row row) {
    row.resize(row_type_->fields().size());
    return row;
  }

  /// Evaluates `expr` over a one-row column batch through FusedExpr and
  /// checks it equals the per-row oracle and the expected value.
  void ExpectTernary(const RexNodePtr& expr, const Row& row,
                     const Value& expected) {
    Row full = Padded(row);
    ColumnBatch in = ToColumns({full});
    ColumnBatch out;
    out.arena = std::make_shared<Arena>();
    out.ShareStorage(in);
    out.num_rows = 1;
    Status status = FusedExpr(expr).AppendEvalColumn(in, &out);
    ASSERT_TRUE(status.ok()) << expr->ToString() << ": " << status.ToString();
    ASSERT_EQ(out.cols.size(), 1u);
    EXPECT_EQ(out.cols[0].GetValue(0).ToString(), expected.ToString())
        << expr->ToString();
    auto oracle = RexInterpreter::Eval(expr, full);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(oracle.value().ToString(), expected.ToString())
        << expr->ToString();
  }

  RexNodePtr NullBool() { return rex_.MakeNullLiteral(bool_null_); }
  RexNodePtr NullInt() { return rex_.MakeNullLiteral(int_null_); }
  RexNodePtr True() { return rex_.MakeBoolLiteral(true); }
  RexNodePtr False() { return rex_.MakeBoolLiteral(false); }
};

TEST_F(TernaryNullTest, AndOrShortCircuitWithNull) {
  Row row = {Value::Int(0)};
  // AND: TRUE AND NULL -> NULL, FALSE AND NULL -> FALSE (short-circuit),
  // NULL AND NULL -> NULL.
  ExpectTernary(rex_.MakeAnd({True(), NullBool()}), row, Value::Null());
  ExpectTernary(rex_.MakeAnd({False(), NullBool()}), row, Value::Bool(false));
  ExpectTernary(rex_.MakeAnd({NullBool(), False()}), row, Value::Bool(false));
  ExpectTernary(rex_.MakeAnd({NullBool(), NullBool()}), row, Value::Null());
  // OR: TRUE OR NULL -> TRUE, FALSE OR NULL -> NULL.
  ExpectTernary(rex_.MakeOr({True(), NullBool()}), row, Value::Bool(true));
  ExpectTernary(rex_.MakeOr({NullBool(), True()}), row, Value::Bool(true));
  ExpectTernary(rex_.MakeOr({False(), NullBool()}), row, Value::Null());
  ExpectTernary(rex_.MakeOr({NullBool(), NullBool()}), row, Value::Null());
  // NOT NULL -> NULL.
  ExpectTernary(Call(OpKind::kNot, {NullBool()}), row, Value::Null());
}

TEST_F(TernaryNullTest, ComparisonsWithNullYieldNull) {
  // Nullable column against literal, both orders, via the fused kernel.
  Row null_row = {Value::Int(0), Value::Null()};
  Row live_row = {Value::Int(0), Value::Int(5)};
  RexNodePtr col = rex_.MakeInputRef(1, int_null_);
  for (OpKind op : {OpKind::kEquals, OpKind::kNotEquals, OpKind::kLessThan,
                    OpKind::kLessThanOrEqual, OpKind::kGreaterThan,
                    OpKind::kGreaterThanOrEqual}) {
    ExpectTernary(Call(op, {col, rex_.MakeIntLiteral(3)}), null_row,
                  Value::Null());
    ExpectTernary(Call(op, {rex_.MakeIntLiteral(3), col}), null_row,
                  Value::Null());
    ExpectTernary(Call(op, {col, NullInt()}), live_row, Value::Null());
  }
  // Arithmetic over NULL is NULL too (strict operators).
  ExpectTernary(Call(OpKind::kPlus, {col, rex_.MakeIntLiteral(1)}), null_row,
                Value::Null());
  ExpectTernary(Call(OpKind::kUnaryMinus, {col}), null_row, Value::Null());
}

TEST_F(TernaryNullTest, NullTestsSeeThroughNull) {
  Row null_row = {Value::Int(0), Value::Null()};
  Row live_row = {Value::Int(0), Value::Int(5)};
  RexNodePtr col = rex_.MakeInputRef(1, int_null_);
  ExpectTernary(Call(OpKind::kIsNull, {col}), null_row, Value::Bool(true));
  ExpectTernary(Call(OpKind::kIsNull, {col}), live_row, Value::Bool(false));
  ExpectTernary(Call(OpKind::kIsNotNull, {col}), null_row,
                Value::Bool(false));
  ExpectTernary(Call(OpKind::kIsNotNull, {col}), live_row, Value::Bool(true));
  // IS TRUE / IS FALSE treat NULL as neither.
  RexNodePtr flag = rex_.MakeInputRef(5, bool_null_);
  Row null_flag = {Value::Int(0)};
  ExpectTernary(Call(OpKind::kIsTrue, {flag}), null_flag, Value::Bool(false));
  ExpectTernary(Call(OpKind::kIsFalse, {flag}), null_flag,
                Value::Bool(false));
}

TEST_F(TernaryNullTest, CastOfNullIsNull) {
  Row null_row = {Value::Int(0), Value::Null()};
  RexNodePtr col = rex_.MakeInputRef(1, int_null_);
  ExpectTernary(rex_.MakeCast(int_null_, col), null_row, Value::Null());
  ExpectTernary(rex_.MakeCast(dbl_null_, col), null_row, Value::Null());
  ExpectTernary(rex_.MakeCast(str_null_, col), null_row, Value::Null());
  ExpectTernary(rex_.MakeCast(bool_null_, NullInt()), null_row, Value::Null());
}

TEST_F(TernaryNullTest, FilterTreatsUnknownAsNotPassing) {
  // Rows: a = NULL, 1, 5. Predicate a > 2 passes only the 5.
  ColumnBatch batch =
      ToColumns({Padded({Value::Int(0), Value::Null()}),
                 Padded({Value::Int(1), Value::Int(1)}),
                 Padded({Value::Int(2), Value::Int(5)})});
  RexNodePtr pred = Call(OpKind::kGreaterThan,
                         {rex_.MakeInputRef(1, int_null_),
                          rex_.MakeIntLiteral(2)});
  SelectionVector sel = {0, 1, 2};
  ASSERT_TRUE(FusedExpr(pred).NarrowSelection(batch, &sel).ok());
  EXPECT_EQ(sel, SelectionVector({2}));
}

}  // namespace
}  // namespace calcite
