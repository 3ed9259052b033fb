// Randomized differential tests of the columnar expression kernels
// (RexColumnar::AppendEvalColumn / NarrowSelection) against the per-row tree
// interpreter (RexInterpreter::Eval, the oracle): a small seeded random
// generator builds typed expression trees — arithmetic, comparison, logic,
// casts over columns with ~20% NULLs — and evaluates them over the typed
// column decomposition of the same rows, across batch sizes
// {1, 1023, 1024, 1025} and selection vectors of every shape (absent,
// empty, singleton, dense, sparse), so typed fast paths and the boxed
// fallback are both diffed against row semantics. Every check additionally
// runs the tree-fusing bytecode interpreter (rex/rex_fuse.h), making each
// tree a three-way differential: fused-vs-per-node-vs-per-row, under both
// SIMD dispatch modes. A directed ternary-NULL-semantics regression pack
// locks in the three-valued-logic corners the kernels must preserve.
//
// The generator is error-free by construction (division and modulo only
// ever take a non-zero literal divisor, casts never parse arbitrary
// strings), so a Status failure from either engine is itself a bug. It
// also deliberately mixes fusible and unfusible operators (ABS, UPPER,
// string compares) so the fused path's whole-tree fallback is fuzzed as
// hard as its bytecode programs.
//
// REX_FUZZ_ITERS=<k> multiplies every iteration count by k — the dedicated
// CI fuzz step runs with a raised count; the default keeps local runs fast.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "exec/arena.h"
#include "exec/column_batch.h"
#include "exec/simd.h"
#include "rex/rex_builder.h"
#include "rex/rex_columnar.h"
#include "rex/rex_fuse.h"
#include "rex/rex_interpreter.h"
#include "type/rel_data_type.h"
#include "type/value.h"

namespace calcite {
namespace {

// Column layout of the fuzz batches:
//   $0 id INT NOT NULL   (row index)
//   $1 a  INT?           (~20% NULL)
//   $2 b  INT?           (~20% NULL)
//   $3 x  DOUBLE?        (~20% NULL)
//   $4 s  VARCHAR?       (~20% NULL)
//   $5 f  BOOLEAN?       (~20% NULL)
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
        {"id", "a", "b", "x", "s", "f"},
        {int_t_, int_null_, int_null_, dbl_null_, str_null_, bool_null_});
  }

  RowBatch MakeBatch(size_t n, std::mt19937* rng, int null_pct = 20) {
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<int64_t> small(-9, 20);
    std::uniform_real_distribution<double> real(-4.0, 8.0);
    std::uniform_int_distribution<int> word(0, 6);
    static const char* kWords[] = {"", "a", "ab", "abc", "s1", "s10", "zz"};
    RowBatch batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Row row;
      row.push_back(Value::Int(static_cast<int64_t>(i)));
      row.push_back(pct(*rng) < null_pct ? Value::Null()
                                         : Value::Int(small(*rng)));
      row.push_back(pct(*rng) < null_pct ? Value::Null()
                                         : Value::Int(small(*rng)));
      row.push_back(pct(*rng) < null_pct ? Value::Null()
                                         : Value::Double(real(*rng)));
      row.push_back(pct(*rng) < null_pct ? Value::Null()
                                         : Value::String(kWords[word(*rng)]));
      row.push_back(pct(*rng) < null_pct ? Value::Null()
                                         : Value::Bool(pct(*rng) < 50));
      batch.push_back(std::move(row));
    }
    return batch;
  }

  // ----------------------- random expression grammar -----------------------

  int Pick(std::mt19937* rng, int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(*rng);
  }

  RexNodePtr NumLeaf(std::mt19937* rng) {
    switch (Pick(rng, 5)) {
      case 0:
        return rex_.MakeInputRef(row_type_, 0);
      case 1:
        return rex_.MakeInputRef(row_type_, 1);
      case 2:
        return rex_.MakeInputRef(row_type_, 2);
      case 3:
        return rex_.MakeInputRef(row_type_, 3);
      default:
        return Pick(rng, 2) == 0
                   ? rex_.MakeIntLiteral(
                         std::uniform_int_distribution<int64_t>(-5, 10)(*rng))
                   : rex_.MakeDoubleLiteral(
                         std::uniform_real_distribution<double>(-3.0, 5.0)(
                             *rng));
    }
  }

  RexNodePtr GenNumeric(std::mt19937* rng, int depth) {
    if (depth <= 0) return NumLeaf(rng);
    switch (Pick(rng, 8)) {
      case 0:
      case 1: {  // + - *
        static const OpKind kOps[] = {OpKind::kPlus, OpKind::kMinus,
                                      OpKind::kTimes};
        auto call = rex_.MakeCall(kOps[Pick(rng, 3)],
                                  {GenNumeric(rng, depth - 1),
                                   GenNumeric(rng, depth - 1)});
        return call.ok() ? call.value() : NumLeaf(rng);
      }
      case 2: {  // / and % with a guaranteed non-zero literal divisor
        OpKind op = Pick(rng, 2) == 0 ? OpKind::kDivide : OpKind::kMod;
        int64_t d = std::uniform_int_distribution<int64_t>(1, 7)(*rng);
        if (Pick(rng, 2) == 0) d = -d;
        auto call = rex_.MakeCall(
            op, {GenNumeric(rng, depth - 1), rex_.MakeIntLiteral(d)});
        return call.ok() ? call.value() : NumLeaf(rng);
      }
      case 3: {  // unary minus
        auto call = rex_.MakeCall(OpKind::kUnaryMinus,
                                  {GenNumeric(rng, depth - 1)});
        return call.ok() ? call.value() : NumLeaf(rng);
      }
      case 4:  // single-step cast (fused when the operand is a leaf)
        return rex_.MakeCast(Pick(rng, 2) == 0 ? int_null_ : dbl_null_,
                             GenNumeric(rng, depth - 1));
      case 5: {  // ABS — deliberately outside the fused set (fallback path)
        auto call = rex_.MakeCall(OpKind::kAbs, {GenNumeric(rng, depth - 1)});
        return call.ok() ? call.value() : NumLeaf(rng);
      }
      default:
        return NumLeaf(rng);
    }
  }

  RexNodePtr StrLeaf(std::mt19937* rng) {
    if (Pick(rng, 2) == 0) return rex_.MakeInputRef(row_type_, 4);
    static const char* kLits[] = {"", "a", "s1", "abc"};
    return rex_.MakeStringLiteral(kLits[Pick(rng, 4)]);
  }

  RexNodePtr GenString(std::mt19937* rng, int depth) {
    if (depth <= 0) return StrLeaf(rng);
    switch (Pick(rng, 4)) {
      case 0:  // numeric -> VARCHAR cast (fused single-step over leaves)
        return rex_.MakeCast(str_null_, GenNumeric(rng, depth - 1));
      case 1: {  // UPPER — fallback path
        auto call = rex_.MakeCall(OpKind::kUpper, {GenString(rng, depth - 1)});
        return call.ok() ? call.value() : StrLeaf(rng);
      }
      default:
        return StrLeaf(rng);
    }
  }

  RexNodePtr GenBool(std::mt19937* rng, int depth) {
    if (depth <= 0) {
      return Pick(rng, 2) == 0 ? rex_.MakeInputRef(row_type_, 5)
                               : rex_.MakeBoolLiteral(Pick(rng, 2) == 0);
    }
    static const OpKind kCmps[] = {
        OpKind::kEquals,      OpKind::kNotEquals,
        OpKind::kLessThan,    OpKind::kLessThanOrEqual,
        OpKind::kGreaterThan, OpKind::kGreaterThanOrEqual};
    switch (Pick(rng, 8)) {
      case 0:
      case 1: {  // numeric comparison
        auto call = rex_.MakeCall(kCmps[Pick(rng, 6)],
                                  {GenNumeric(rng, depth - 1),
                                   GenNumeric(rng, depth - 1)});
        if (call.ok()) return call.value();
        break;
      }
      case 2: {  // string comparison
        auto call = rex_.MakeCall(kCmps[Pick(rng, 6)],
                                  {GenString(rng, depth - 1),
                                   GenString(rng, depth - 1)});
        if (call.ok()) return call.value();
        break;
      }
      case 3: {  // AND / OR over two or three operands
        std::vector<RexNodePtr> ops;
        int arity = 2 + Pick(rng, 2);
        for (int i = 0; i < arity; ++i) ops.push_back(GenBool(rng, depth - 1));
        return Pick(rng, 2) == 0 ? rex_.MakeAnd(std::move(ops))
                                 : rex_.MakeOr(std::move(ops));
      }
      case 4: {  // NOT
        auto call = rex_.MakeCall(OpKind::kNot, {GenBool(rng, depth - 1)});
        if (call.ok()) return call.value();
        break;
      }
      case 5: {  // IS [NOT] NULL over any column
        auto call = rex_.MakeCall(
            Pick(rng, 2) == 0 ? OpKind::kIsNull : OpKind::kIsNotNull,
            {rex_.MakeInputRef(row_type_, Pick(rng, 6))});
        if (call.ok()) return call.value();
        break;
      }
      case 6: {  // IS TRUE / IS FALSE
        auto call = rex_.MakeCall(
            Pick(rng, 2) == 0 ? OpKind::kIsTrue : OpKind::kIsFalse,
            {GenBool(rng, depth - 1)});
        if (call.ok()) return call.value();
        break;
      }
      default:
        break;
    }
    return rex_.MakeInputRef(row_type_, 5);
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

  /// Decomposes `batch` into a typed ColumnBatch (the columnar engine's
  /// native input) using the fixture row type.
  ColumnBatch ToColumns(const RowBatch& batch) {
    auto cols = RowsToColumns(batch, *row_type_);
    EXPECT_TRUE(cols.ok()) << cols.status().ToString();
    return std::move(cols.value());
  }

  /// RexColumnar::AppendEvalColumn vs per-row Eval over the active rows.
  /// Every expression runs under both kernel dispatch modes: the scalar
  /// result is diffed against the per-row oracle and the SIMD result must
  /// match the scalar one cell-for-cell (on a scalar-only build both runs
  /// take the reference path).
  void CheckColumnarEval(const RexNodePtr& expr, const ColumnBatch& base,
                         const RowBatch& rows, const SelectionVector* sel,
                         const std::string& label) {
    ColumnBatch in = base;  // shallow: shares the typed column storage
    if (sel != nullptr) {
      in.sel = *sel;
      in.has_sel = true;
    }
    ColumnBatch out_scalar, out_simd;
    for (bool enable_simd : {false, true}) {
      simd::ScopedDispatch dispatch(enable_simd);
      ColumnBatch& out = enable_simd ? out_simd : out_scalar;
      out.arena = std::make_shared<Arena>();
      out.ShareStorage(in);
      out.num_rows = in.ActiveCount();
      Status status = RexColumnar::AppendEvalColumn(expr, in, &out);
      ASSERT_TRUE(status.ok()) << label << ": " << status.ToString();
      ASSERT_EQ(out.cols.size(), 1u) << label;
    }
    // Third engine: the tree-fusing bytecode interpreter (which falls back
    // to the per-node path for unfusible trees — the differential holds
    // either way), again under both dispatch modes.
    ColumnBatch fused_scalar, fused_simd;
    for (bool enable_simd : {false, true}) {
      simd::ScopedDispatch dispatch(enable_simd);
      ColumnBatch& out = enable_simd ? fused_simd : fused_scalar;
      out.arena = std::make_shared<Arena>();
      out.ShareStorage(in);
      out.num_rows = in.ActiveCount();
      FusedExpr fused(expr);
      Status status = fused.AppendEvalColumn(in, &out);
      ASSERT_TRUE(status.ok()) << label << ": " << status.ToString();
      ASSERT_EQ(out.cols.size(), 1u) << label;
    }
    const size_t n = in.ActiveCount();
    for (size_t k = 0; k < n; ++k) {
      const Row& row = rows[in.ActiveIndex(k)];
      auto want = RexInterpreter::Eval(expr, row);
      ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
      ASSERT_EQ(out_scalar.cols[0].GetValue(k).ToString(),
                want.value().ToString())
          << label << " row " << k << " expr " << expr->ToString();
      ASSERT_EQ(out_simd.cols[0].GetValue(k).ToString(),
                out_scalar.cols[0].GetValue(k).ToString())
          << label << " simd-vs-scalar row " << k << " expr "
          << expr->ToString();
      ASSERT_EQ(fused_scalar.cols[0].GetValue(k).ToString(),
                out_scalar.cols[0].GetValue(k).ToString())
          << label << " fused-vs-per-node row " << k << " expr "
          << expr->ToString();
      ASSERT_EQ(fused_simd.cols[0].GetValue(k).ToString(),
                out_scalar.cols[0].GetValue(k).ToString())
          << label << " fused-simd-vs-per-node row " << k << " expr "
          << expr->ToString();
    }
  }

  /// RexColumnar::NarrowSelection vs per-row EvalPredicate over the same
  /// candidates, under both kernel dispatch modes (which must agree).
  void CheckColumnarNarrow(const RexNodePtr& pred, const ColumnBatch& base,
                           const RowBatch& rows,
                           const SelectionVector& candidates,
                           const std::string& label) {
    SelectionVector got_scalar, got_simd;
    for (bool enable_simd : {false, true}) {
      simd::ScopedDispatch dispatch(enable_simd);
      SelectionVector& got = enable_simd ? got_simd : got_scalar;
      got = candidates;
      ArenaPtr scratch = std::make_shared<Arena>();
      Status status =
          RexColumnar::NarrowSelection(pred, base, scratch, &got);
      ASSERT_TRUE(status.ok()) << label << ": " << status.ToString();
    }
    // Fused leg of the differential (falls back per the whole-tree rule).
    SelectionVector fused_scalar, fused_simd;
    for (bool enable_simd : {false, true}) {
      simd::ScopedDispatch dispatch(enable_simd);
      SelectionVector& got = enable_simd ? fused_simd : fused_scalar;
      got = candidates;
      ArenaPtr scratch = std::make_shared<Arena>();
      FusedExpr fused(pred);
      Status status = fused.NarrowSelection(base, scratch, &got);
      ASSERT_TRUE(status.ok()) << label << ": " << status.ToString();
    }
    SelectionVector want;
    for (uint32_t idx : candidates) {
      auto pass = RexInterpreter::EvalPredicate(pred, rows[idx]);
      ASSERT_TRUE(pass.ok()) << label << ": " << pass.status().ToString();
      if (pass.value()) want.push_back(idx);
    }
    ASSERT_EQ(got_scalar, want) << label << " pred " << pred->ToString();
    ASSERT_EQ(got_simd, want)
        << label << " simd-vs-scalar pred " << pred->ToString();
    ASSERT_EQ(fused_scalar, want)
        << label << " fused pred " << pred->ToString();
    ASSERT_EQ(fused_simd, want)
        << label << " fused-simd pred " << pred->ToString();
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
        SelectionVector candidates;
        if (shapes[s].has_value()) {
          candidates = *shapes[s];
        } else {
          for (uint32_t i = 0; i < n; ++i) candidates.push_back(i);
        }
        CheckColumnarNarrow(pred, cols, batch, candidates,
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
          SelectionVector candidates;
          if (shapes[s].has_value()) {
            candidates = *shapes[s];
          } else {
            for (uint32_t i = 0; i < n; ++i) candidates.push_back(i);
          }
          CheckColumnarNarrow(pred, cols, batch, candidates, label);
        }
      }
    }
  }
}

// The row-oracle fallbacks (FallbackDense, the last branch of
// NarrowSelection) box only the columns an expression references. Over a
// wide batch — five fixture batches side by side, the shape of a lifted
// join row — a CASE around LIKE and an OR around LIKE must still match the
// per-row oracle, and a reference past the batch width must still raise
// Eval's out-of-range error.
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
    auto call = rex_.MakeCall(OpKind::kLike,
                              {std::move(operand),
                               rex_.MakeStringLiteral(pattern)});
    EXPECT_TRUE(call.ok());
    return call.value();
  };

  auto when = rex_.MakeCall(OpKind::kCase, {like(ref(4, 4), "s1%"),
                                            ref(4, 1), ref(1, 1)});
  ASSERT_TRUE(when.ok()) << when.status().ToString();
  auto gt = rex_.MakeCall(OpKind::kGreaterThan,
                          {ref(4, 3), rex_.MakeDoubleLiteral(1.0)});
  ASSERT_TRUE(gt.ok());
  RexNodePtr pred = rex_.MakeOr({like(ref(1, 4), "a%"), gt.value()});
  for (size_t s = 0; s < SelectionShapes(n).size(); ++s) {
    const auto shape = SelectionShapes(n)[s];
    const std::string label = "wide sel=" + std::to_string(s);
    CheckColumnarEval(when.value(), base, rows,
                      shape.has_value() ? &*shape : nullptr, label);
    SelectionVector candidates;
    if (shape.has_value()) {
      candidates = *shape;
    } else {
      for (uint32_t i = 0; i < n; ++i) candidates.push_back(i);
    }
    CheckColumnarNarrow(pred, base, rows, candidates, label);
  }

  // $40 is past the 30-column batch: both fallbacks report it.
  RexNodePtr far = rex_.MakeInputRef(40, str_null_);
  auto upper = rex_.MakeCall(OpKind::kUpper, {far});
  ASSERT_TRUE(upper.ok());
  ColumnBatch out;
  out.arena = std::make_shared<Arena>();
  out.ShareStorage(base);
  out.num_rows = base.ActiveCount();
  EXPECT_FALSE(RexColumnar::AppendEvalColumn(upper.value(), base, &out).ok());
  SelectionVector sel = {0, 1, 2};
  ArenaPtr scratch = std::make_shared<Arena>();
  EXPECT_FALSE(
      RexColumnar::NarrowSelection(like(far, "x%"), base, scratch, &sel).ok());
}

// --------------------- ternary NULL semantics pack --------------------------
//
// Directed regressions for the three-valued-logic corners the fused kernels
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

  /// Evaluates `expr` over a one-row column batch through the per-node and
  /// fused columnar kernels, checks both equal the per-row oracle and the
  /// expected value.
  void ExpectTernary(const RexNodePtr& expr, const Row& row,
                     const Value& expected) {
    Row full = Padded(row);
    ColumnBatch in = ToColumns({full});
    for (bool fuse : {false, true}) {
      ColumnBatch out;
      out.arena = std::make_shared<Arena>();
      out.ShareStorage(in);
      out.num_rows = 1;
      Status status = fuse ? FusedExpr(expr).AppendEvalColumn(in, &out)
                           : RexColumnar::AppendEvalColumn(expr, in, &out);
      ASSERT_TRUE(status.ok()) << expr->ToString() << ": "
                               << status.ToString();
      ASSERT_EQ(out.cols.size(), 1u);
      EXPECT_EQ(out.cols[0].GetValue(0).ToString(), expected.ToString())
          << expr->ToString() << " fuse=" << fuse;
    }
    auto oracle = RexInterpreter::Eval(expr, full);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(oracle.value().ToString(), expected.ToString())
        << expr->ToString();
  }

  RexNodePtr NullBool() { return rex_.MakeNullLiteral(bool_null_); }
  RexNodePtr NullInt() { return rex_.MakeNullLiteral(int_null_); }
  RexNodePtr True() { return rex_.MakeBoolLiteral(true); }
  RexNodePtr False() { return rex_.MakeBoolLiteral(false); }

  RexNodePtr Call(OpKind op, std::vector<RexNodePtr> ops) {
    auto call = rex_.MakeCall(op, std::move(ops));
    EXPECT_TRUE(call.ok());
    return call.value();
  }
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
  ArenaPtr scratch = std::make_shared<Arena>();
  ASSERT_TRUE(RexColumnar::NarrowSelection(pred, batch, scratch, &sel).ok());
  EXPECT_EQ(sel, SelectionVector({2}));
}

}  // namespace
}  // namespace calcite
