// Differential tests of the columnar execution path: every operator that
// was converted to the ColumnBatch currency (scan, filter, project,
// hash aggregate with DISTINCT calls, sort and top-N, set ops, the hash
// join in all six types, and the morsel-parallel pipelines) —
// over columnar leaves and over row producers (aggregates, sorts,
// DiskTables) whose batches are decoded into columns — must
// produce byte-identical results with `enable_columnar` on and off, across
// cardinalities that straddle the batch boundary (0 / 1 / 1023 / 1024 /
// 1025), NULL-heavy data, and num_threads ∈ {1, 4} (parallel plans compare
// as multisets — unordered fragments do not promise an order). A SQL-level
// differential runs whole optimized plans both ways, and unit packs cover
// the arena allocator, the table column decomposition, leaf predicate
// pushdown on raw columns (range fusion included), the row/column
// conversion boundary, and the ExecOptions normalization clamps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "adapters/enumerable/aggregates.h"
#include "adapters/enumerable/enumerable_rels.h"
#include "exec/arena.h"
#include "exec/column_batch.h"
#include "exec/simd.h"
#include "rel/core.h"
#include "rex/rex_builder.h"
#include "storage/disk_table.h"
#include "test_schema.h"
#include "tools/frameworks.h"

namespace calcite {
namespace {

const std::vector<size_t> kCardinalities = {0, 1, 1023, 1024, 1025};

/// Five columns spanning every physical column class: id INT NOT NULL
/// (unique), k INT? (NULL every 3rd row), s VARCHAR? (NULL every 5th row),
/// d DOUBLE? (NULL every 4th row), f BOOLEAN? (NULL every 6th row).
RelDataTypePtr TestRowType(const TypeFactory& tf) {
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto int_null = tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto str_null = tf.CreateSqlType(SqlTypeName::kVarchar, 20, true);
  auto dbl_null = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
  auto bool_null = tf.CreateSqlType(SqlTypeName::kBoolean, -1, true);
  return tf.CreateStructType({"id", "k", "s", "d", "f"},
                             {int_t, int_null, str_null, dbl_null, bool_null});
}

std::vector<Row> MakeRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(
        {Value::Int(static_cast<int64_t>(i)),
         i % 3 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(i % 7)),
         i % 5 == 0 ? Value::Null()
                    : Value::String("s" + std::to_string(i % 11)),
         i % 4 == 0 ? Value::Null()
                    : Value::Double(static_cast<double>(i % 13) * 0.5),
         i % 6 == 0 ? Value::Null() : Value::Bool(i % 2 == 0)});
  }
  return rows;
}

Result<std::vector<Row>> RunPlan(const RelNodePtr& node, const ExecOptions& opts) {
  auto puller = node->ExecuteBatched(opts);
  if (!puller.ok()) return puller.status();
  std::vector<Row> out;
  for (;;) {
    auto batch = (puller.value())();
    if (!batch.ok()) return batch.status();
    if (batch.value().empty()) break;
    for (Row& row : batch.value()) out.push_back(std::move(row));
  }
  return out;
}

std::vector<std::string> Strings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  return out;
}

/// Runs `node` with the columnar path disabled (the serial row engine, the
/// reference) and asserts the columnar path produces identical rows at
/// several batch sizes, then that 4-way parallel execution (columnar-only)
/// produces the same multiset of rows. Every leg scans with `access_path`.
void ExpectColumnarParity(const RelNodePtr& node, const std::string& label,
                          AccessPath access_path = AccessPath::kAuto,
                          const std::vector<size_t>& batch_sizes = {1, 3, 1023,
                                                                    1024}) {
  ExecOptions row_opts;
  row_opts.enable_columnar = false;
  row_opts.access_path = access_path;
  auto base = RunPlan(node, row_opts);
  ASSERT_TRUE(base.ok()) << label << ": " << base.status().ToString();
  std::vector<std::string> want = Strings(base.value());

  for (size_t bs : batch_sizes) {
    ExecOptions col_opts;
    col_opts.enable_columnar = true;
    col_opts.batch_size = bs;
    col_opts.access_path = access_path;
    auto got = RunPlan(node, col_opts);
    ASSERT_TRUE(got.ok()) << label << " bs=" << bs << ": "
                          << got.status().ToString();
    std::vector<std::string> got_s = Strings(got.value());
    ASSERT_EQ(got_s.size(), want.size()) << label << " bs=" << bs;
    for (size_t i = 0; i < got_s.size(); ++i) {
      ASSERT_EQ(got_s[i], want[i]) << label << " bs=" << bs << " row " << i;
    }
  }

  std::vector<std::string> want_sorted = want;
  std::sort(want_sorted.begin(), want_sorted.end());
  ExecOptions par_opts;
  par_opts.num_threads = 4;
  par_opts.access_path = access_path;
  auto got = RunPlan(node, par_opts);
  ASSERT_TRUE(got.ok()) << label << " threads=4: " << got.status().ToString();
  std::vector<std::string> got_s = Strings(got.value());
  std::sort(got_s.begin(), got_s.end());
  ASSERT_EQ(got_s, want_sorted) << label << " threads=4";
}

class ColumnarParityTest : public ::testing::Test {
 protected:
  /// A scan over a MemTable — the leaf shape that exposes a columnar
  /// decomposition, so plans above it take the ColumnBatch path.
  RelNodePtr Scan(size_t n) {
    auto table = std::make_shared<MemTable>(TestRowType(tf_), MakeRows(n));
    return ScanOf(table);
  }

  RelNodePtr ScanOf(const TablePtr& table) {
    auto logical =
        LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf_);
    return EnumerableTableScan::Create(
        *static_cast<const TableScan*>(logical.get()));
  }

  RexNodePtr Field(const RelDataTypePtr& row_type, int i) {
    return rex_.MakeInputRef(row_type, i);
  }

  RexNodePtr Call(OpKind op, std::vector<RexNodePtr> operands) {
    auto call = rex_.MakeCall(op, std::move(operands));
    EXPECT_TRUE(call.ok()) << call.status().ToString();
    return call.value();
  }

  /// COUNT(*), SUM($sum_arg), MIN($min_arg).
  static std::vector<AggregateCall> CountSumMin(int sum_arg, int min_arg) {
    std::vector<AggregateCall> calls(3);
    calls[0].kind = AggKind::kCountStar;
    calls[0].name = "cnt";
    calls[1].kind = AggKind::kSum;
    calls[1].args = {sum_arg};
    calls[1].name = "total";
    calls[2].kind = AggKind::kMin;
    calls[2].args = {min_arg};
    calls[2].name = "least";
    return calls;
  }

  /// Filter, Project and Aggregates with 0, 1 and 2 keys over `input`,
  /// whose first five columns have the TestRowType layout: a residual
  /// comparing two columns plus a LIKE (outside the typed kernels), a
  /// projection mixing typed and fallback expressions, and groupings over
  /// the NULL-heavy columns.
  void ExpectOperatorParity(const RelNodePtr& input, const std::string& label,
                            AccessPath access_path = AccessPath::kAuto) {
    const RelDataTypePtr& rt = input->row_type();
    RexNodePtr cond = rex_.MakeAnd(
        {Call(OpKind::kLessThan, {Field(rt, 0), rex_.MakeIntLiteral(3000)}),
         Call(OpKind::kGreaterThan, {Field(rt, 0), Field(rt, 1)}),
         rex_.MakeOr({Call(OpKind::kLike, {Field(rt, 2),
                                           rex_.MakeStringLiteral("s1%")}),
                      Call(OpKind::kIsNull, {Field(rt, 3)})})});
    RelNodePtr filtered = EnumerableFilter::Create(input, cond);
    ExpectColumnarParity(filtered, label + " filter", access_path);

    std::vector<RexNodePtr> exprs = {
        Call(OpKind::kPlus, {Field(rt, 0), Field(rt, 1)}),
        Call(OpKind::kUpper, {Field(rt, 2)}), Field(rt, 3),
        Call(OpKind::kTimes, {Field(rt, 3), rex_.MakeDoubleLiteral(2.0)})};
    auto proj_type =
        DeriveProjectRowType(exprs, {"sum", "us", "d", "d2"}, tf_);
    ExpectColumnarParity(EnumerableProject::Create(input, exprs, proj_type),
                         label + " project", access_path);
    ExpectColumnarParity(
        EnumerableProject::Create(filtered, exprs, proj_type),
        label + " project(filter)", access_path);

    const std::vector<AggregateCall> calls = CountSumMin(3, 2);
    for (const std::vector<int>& keys :
         {std::vector<int>{}, std::vector<int>{1}, std::vector<int>{1, 2}}) {
      auto agg_type = DeriveAggregateRowType(rt, keys, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(input, keys, calls, agg_type),
          label + " aggregate keys=" + std::to_string(keys.size()),
          access_path);
      ExpectColumnarParity(
          EnumerableAggregate::Create(filtered, keys, calls, agg_type),
          label + " aggregate(filter) keys=" + std::to_string(keys.size()),
          access_path);
    }
  }

  TypeFactory tf_;
  RexBuilder rex_;
};

TEST_F(ColumnarParityTest, TableScan) {
  for (size_t n : kCardinalities) {
    ExpectColumnarParity(Scan(n), "Scan n=" + std::to_string(n));
  }
}

TEST_F(ColumnarParityTest, Filter) {
  for (size_t n : kCardinalities) {
    RelNodePtr scan = Scan(n);
    const RelDataTypePtr& rt = scan->row_type();
    // Fully pushable: runs on the raw columns inside the leaf scan.
    auto lt = rex_.MakeCall(OpKind::kLessThan,
                            {Field(rt, 0), rex_.MakeIntLiteral(900)});
    ASSERT_TRUE(lt.ok());
    auto nn = rex_.MakeCall(OpKind::kIsNotNull, {Field(rt, 1)});
    ASSERT_TRUE(nn.ok());
    ExpectColumnarParity(
        EnumerableFilter::Create(scan, rex_.MakeAnd({lt.value(), nn.value()})),
        "Filter(pushed) n=" + std::to_string(n));

    // Pushed conjuncts plus a typed residual over two column refs.
    auto refs = rex_.MakeCall(OpKind::kGreaterThan,
                              {Field(rt, 0), Field(rt, 1)});
    ASSERT_TRUE(refs.ok());
    ExpectColumnarParity(
        EnumerableFilter::Create(
            scan, rex_.MakeAnd({lt.value(), refs.value()})),
        "Filter(residual) n=" + std::to_string(n));

    // Row-oracle fallback: LIKE is outside the typed kernel set.
    auto like = rex_.MakeCall(
        OpKind::kLike, {Field(rt, 2), rex_.MakeStringLiteral("s1%")});
    ASSERT_TRUE(like.ok());
    auto dgt = rex_.MakeCall(OpKind::kGreaterThan,
                             {Field(rt, 3), rex_.MakeDoubleLiteral(2.0)});
    ASSERT_TRUE(dgt.ok());
    ExpectColumnarParity(
        EnumerableFilter::Create(scan,
                                 rex_.MakeOr({like.value(), dgt.value()})),
        "Filter(fallback) n=" + std::to_string(n));

    // A nullable BOOLEAN column used directly as the condition.
    ExpectColumnarParity(EnumerableFilter::Create(scan, Field(rt, 4)),
                         "Filter(bool col) n=" + std::to_string(n));

    // Eliminates everything (columnar batches are skipped, never empty).
    ExpectColumnarParity(
        EnumerableFilter::Create(scan, rex_.MakeBoolLiteral(false)),
        "Filter(false) n=" + std::to_string(n));
  }
}

TEST_F(ColumnarParityTest, Project) {
  for (size_t n : kCardinalities) {
    RelNodePtr scan = Scan(n);
    const RelDataTypePtr& rt = scan->row_type();
    auto sum = rex_.MakeCall(OpKind::kPlus,
                             {Field(rt, 0), rex_.MakeIntLiteral(7)});
    ASSERT_TRUE(sum.ok());
    auto prod = rex_.MakeCall(OpKind::kTimes,
                              {Field(rt, 3), rex_.MakeDoubleLiteral(2.0)});
    ASSERT_TRUE(prod.ok());
    auto upper = rex_.MakeCall(OpKind::kUpper, {Field(rt, 2)});  // fallback
    ASSERT_TRUE(upper.ok());
    std::vector<RexNodePtr> exprs = {Field(rt, 0), sum.value(), prod.value(),
                                     upper.value(), Field(rt, 4),
                                     rex_.MakeStringLiteral("const")};
    auto row_type = DeriveProjectRowType(
        exprs, {"id", "id7", "d2", "us", "f", "c"}, tf_);
    ExpectColumnarParity(EnumerableProject::Create(scan, exprs, row_type),
                         "Project n=" + std::to_string(n));

    // Project over a filter: the projection consumes a selection-carrying
    // columnar stream.
    auto cond = rex_.MakeCall(OpKind::kGreaterThanOrEqual,
                              {Field(rt, 0), rex_.MakeIntLiteral(5)});
    ASSERT_TRUE(cond.ok());
    ExpectColumnarParity(
        EnumerableProject::Create(EnumerableFilter::Create(scan, cond.value()),
                                  exprs, row_type),
        "Project(filtered) n=" + std::to_string(n));
  }
}

TEST_F(ColumnarParityTest, Aggregate) {
  for (size_t n : kCardinalities) {
    RelNodePtr scan = Scan(n);
    const RelDataTypePtr& rt = scan->row_type();
    std::vector<AggregateCall> calls;
    {
      AggregateCall c;
      c.kind = AggKind::kCountStar;
      c.name = "cnt";
      calls.push_back(c);
      c.kind = AggKind::kCount;
      c.args = {1};
      c.name = "cnt_k";
      calls.push_back(c);
      c.kind = AggKind::kSum;
      c.args = {3};
      c.name = "sum_d";
      calls.push_back(c);
      c.kind = AggKind::kAvg;
      c.args = {0};
      c.name = "avg_id";
      calls.push_back(c);
      c.kind = AggKind::kMin;
      c.args = {2};
      c.name = "min_s";
      calls.push_back(c);
      c.kind = AggKind::kMax;
      c.args = {3};
      c.name = "max_d";
      calls.push_back(c);
      c.kind = AggKind::kCount;
      c.args = {1};
      c.distinct = true;
      c.name = "cntd_k";
      calls.push_back(c);
    }
    // Global (one output row even over empty input).
    {
      auto row_type = DeriveAggregateRowType(rt, {}, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(scan, {}, calls, row_type),
          "Aggregate(global) n=" + std::to_string(n));
    }
    // Grouped by the NULL-heavy int column (the typed group-key fast path).
    {
      auto row_type = DeriveAggregateRowType(rt, {1}, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(scan, {1}, calls, row_type),
          "Aggregate(k) n=" + std::to_string(n));
    }
    // Grouped by the string column (boxed group keys).
    {
      auto row_type = DeriveAggregateRowType(rt, {2}, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(scan, {2}, calls, row_type),
          "Aggregate(s) n=" + std::to_string(n));
    }
    // Two group keys: composite keys resolve through a boxed key Row.
    {
      auto row_type = DeriveAggregateRowType(rt, {1, 2}, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(scan, {1, 2}, calls, row_type),
          "Aggregate(k,s) n=" + std::to_string(n));
    }
    // Aggregate over a filter (selection-carrying columnar input).
    {
      auto cond = rex_.MakeCall(OpKind::kLessThan,
                                {Field(rt, 0), rex_.MakeIntLiteral(777)});
      ASSERT_TRUE(cond.ok());
      auto row_type = DeriveAggregateRowType(rt, {1}, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(
              EnumerableFilter::Create(scan, cond.value()), {1}, calls,
              row_type),
          "Aggregate(filtered) n=" + std::to_string(n));
    }
  }
}

// Composite GROUP BY keys resolve through a boxed key Row in the columnar
// builder; serial output must keep the row engine's first-seen order.
TEST_F(ColumnarParityTest, AggregateCompositeKeys) {
  std::vector<AggregateCall> calls;
  {
    AggregateCall c;
    c.kind = AggKind::kCountStar;
    c.name = "cnt";
    calls.push_back(c);
    c.kind = AggKind::kSum;
    c.args = {3};
    c.name = "sum_d";
    calls.push_back(c);
    c.kind = AggKind::kMin;
    c.args = {0};
    c.name = "min_id";
    calls.push_back(c);
  }
  // 2- and 3-key groupings over the NULL-heavy columns: string+int keys,
  // and keys whose NULLs fall in only one of the columns.
  const std::vector<std::vector<int>> key_sets = {
      {1, 2}, {2, 1}, {1, 2, 4}, {4, 3, 1}};
  for (size_t n : kCardinalities) {
    RelNodePtr scan = Scan(n);
    const RelDataTypePtr& rt = scan->row_type();
    for (const std::vector<int>& keys : key_sets) {
      std::string label = "Aggregate(keys=";
      for (int k : keys) label += std::to_string(k);
      label += ") n=" + std::to_string(n);
      auto row_type = DeriveAggregateRowType(rt, keys, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(scan, keys, calls, row_type), label);
    }
  }

  // A DOUBLE column that stores Int and Double values decomposes to a boxed
  // column; Int(2) and Double(2.0) must land in one group.
  auto dbl_null = tf_.CreateSqlType(SqlTypeName::kDouble, -1, true);
  auto int_null = tf_.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto int_t = tf_.CreateSqlType(SqlTypeName::kInteger);
  auto mixed_type = tf_.CreateStructType({"x", "k", "id", "d"},
                                         {dbl_null, int_null, int_t, dbl_null});
  std::vector<Row> rows;
  for (size_t i = 0; i < 1025; ++i) {
    const int64_t x = static_cast<int64_t>(i % 3);
    rows.push_back(
        {i % 4 == 0   ? Value::Null()
         : i % 2 == 0 ? Value::Int(x)
                      : Value::Double(static_cast<double>(x)),
         i % 5 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(i % 2)),
         Value::Int(static_cast<int64_t>(i)),
         Value::Double(static_cast<double>(i % 7) * 0.5)});
  }
  auto table = std::make_shared<MemTable>(mixed_type, rows);
  TypeFactory tf;
  ASSERT_NE(table->MaterializedColumns(tf), nullptr);
  EXPECT_EQ(table->MaterializedColumns(tf)->cols[0].type, PhysType::kValue);
  RelNodePtr scan = ScanOf(table);
  for (const std::vector<int>& keys :
       {std::vector<int>{0}, std::vector<int>{0, 1}}) {
    auto row_type = DeriveAggregateRowType(mixed_type, keys, calls, tf_);
    RelNodePtr agg = EnumerableAggregate::Create(scan, keys, calls, row_type);
    ExpectColumnarParity(agg, "Aggregate(mixed x) keys=" +
                                  std::to_string(keys.size()));
    auto got = RunPlan(agg, ExecOptions{});
    ASSERT_TRUE(got.ok());
    // x groups: NULL, 0, 1, 2 (each numeric value seen as Int and Double);
    // (x, k) pairs: 11 of the 12 combinations occur (x NULL implies even i,
    // so k is never 1 there).
    EXPECT_EQ(got.value().size(), keys.size() == 1 ? 4u : 11u);
  }
}

TEST_F(ColumnarParityTest, HashJoinAllTypes) {
  const std::vector<JoinType> join_types = {
      JoinType::kInner, JoinType::kLeft,  JoinType::kRight,
      JoinType::kFull,  JoinType::kSemi,  JoinType::kAnti};
  for (size_t n : {size_t{0}, size_t{1}, size_t{1023}, size_t{1025}}) {
    RelNodePtr left = Scan(n);
    RelNodePtr right = Scan(97);
    const RelDataTypePtr& lt = left->row_type();
    const RelDataTypePtr& rt = right->row_type();
    size_t left_width = lt->fields().size();
    // Equi-key on the NULL-heavy k columns plus a non-equi residual.
    auto equi = rex_.MakeEquals(
        Field(lt, 1), rex_.MakeInputRef(static_cast<int>(left_width) + 1,
                                        rt->fields()[1].type));
    auto bound = rex_.MakeCall(
        OpKind::kPlus,
        {rex_.MakeInputRef(static_cast<int>(left_width) + 0,
                           rt->fields()[0].type),
         rex_.MakeIntLiteral(700)});
    ASSERT_TRUE(bound.ok());
    auto residual =
        rex_.MakeCall(OpKind::kLessThan, {Field(lt, 0), bound.value()});
    ASSERT_TRUE(residual.ok());
    RexNodePtr condition = rex_.MakeAnd({equi, residual.value()});
    for (JoinType jt : join_types) {
      auto row_type = DeriveJoinRowType(lt, rt, jt, tf_);
      ExpectColumnarParity(
          EnumerableHashJoin::Create(left, right, condition, jt, row_type),
          std::string("HashJoin ") + JoinTypeName(jt) +
              " n=" + std::to_string(n));
    }
    // Probe side under a filter: the probe consumes a selection-carrying
    // columnar stream.
    auto lcond = rex_.MakeCall(OpKind::kGreaterThanOrEqual,
                               {Field(lt, 0), rex_.MakeIntLiteral(3)});
    ASSERT_TRUE(lcond.ok());
    auto inner_type = DeriveJoinRowType(lt, rt, JoinType::kInner, tf_);
    ExpectColumnarParity(
        EnumerableHashJoin::Create(EnumerableFilter::Create(left,
                                                            lcond.value()),
                                   right, equi, JoinType::kInner, inner_type),
        "HashJoin(filtered probe) n=" + std::to_string(n));
  }
}

/// Join-key layout for the join parity cases: id INT (unique), ki INT?,
/// kd DOUBLE? (NaN and NULL cells), ks VARCHAR?, km DOUBLE? holding Int and
/// Double values (a boxed column). `hot` rows at the end all carry key 100
/// in ki, so one key matches more build rows than a batch holds.
RelDataTypePtr JoinKeyRowType(const TypeFactory& tf) {
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto int_null = tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto dbl_null = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
  auto str_null = tf.CreateSqlType(SqlTypeName::kVarchar, 20, true);
  return tf.CreateStructType({"id", "ki", "kd", "ks", "km"},
                             {int_t, int_null, dbl_null, str_null, dbl_null});
}

/// Every key cell of row i derives from i % modulus, so a probe row
/// matches about (build rows / build modulus) build rows.
std::vector<Row> MakeJoinKeyRows(size_t n, size_t modulus, size_t hot) {
  std::vector<Row> rows;
  for (size_t i = 0; i < n + hot; ++i) {
    const int64_t m = static_cast<int64_t>(i % modulus);
    Value kd = Value::Double(static_cast<double>(m));
    if (i % 9 == 4) kd = Value::Double(std::nan(""));
    if (i % 11 == 3) kd = Value::Null();
    rows.push_back(
        {Value::Int(static_cast<int64_t>(i)),
         i >= n ? Value::Int(100) : (i % 5 == 2 ? Value::Null() : Value::Int(m)),
         kd,
         i % 7 == 1 ? Value::Null() : Value::String("s" + std::to_string(m)),
         i % 2 == 0 ? Value::Int(m) : Value::Double(static_cast<double>(m))});
  }
  return rows;
}

TEST_F(ColumnarParityTest, ColumnarHashJoinMatchesRowReference) {
  const std::vector<JoinType> join_types = {
      JoinType::kInner, JoinType::kLeft,  JoinType::kRight,
      JoinType::kFull,  JoinType::kSemi,  JoinType::kAnti};
  const std::vector<size_t> batch_sizes = {1, 3, 1023, 1024, 1025};
  auto scan = [&](size_t n, size_t modulus, size_t hot) {
    return ScanOf(std::make_shared<MemTable>(
        JoinKeyRowType(tf_), MakeJoinKeyRows(n, modulus, hot)));
  };
  // (left column, right column) key pairs: int, double (NaN, NULL), string,
  // composite, int against double, and the boxed Int/Double column against
  // int and double.
  const std::vector<std::vector<std::pair<int, int>>> key_sets = {
      {{1, 1}}, {{2, 2}}, {{3, 3}}, {{1, 1}, {3, 3}}, {{1, 2}},
      {{4, 1}}, {{4, 2}}};
  // Probe/build sizes: both sides populated (the build with a hot key of
  // 1100 rows, the probe with one row of it), then an empty build side and
  // an empty probe side.
  const std::vector<std::pair<size_t, size_t>> sizes = {
      {1025, 120}, {40, 0}, {0, 40}};
  for (const auto& [n, m] : sizes) {
    RelNodePtr left = scan(n, 53, n > 0 ? 1 : 0);
    RelNodePtr right = scan(m, 47, m > 0 ? 1100 : 0);
    const RelDataTypePtr& lt = left->row_type();
    const RelDataTypePtr& rt = right->row_type();
    const int lw = static_cast<int>(lt->fields().size());
    auto right_ref = [&](int i) {
      return rex_.MakeInputRef(lw + i, rt->fields()[static_cast<size_t>(i)].type);
    };
    for (const auto& keys : key_sets) {
      std::vector<RexNodePtr> conjuncts;
      for (const auto& [l, r] : keys) {
        conjuncts.push_back(rex_.MakeEquals(Field(lt, l), right_ref(r)));
      }
      RexNodePtr equi = rex_.MakeAnd(conjuncts);
      // Residual: l.id < r.id + 700.
      conjuncts.push_back(
          Call(OpKind::kLessThan,
               {Field(lt, 0), Call(OpKind::kPlus, {right_ref(0),
                                                   rex_.MakeIntLiteral(700)})}));
      RexNodePtr with_residual = rex_.MakeAnd(conjuncts);
      for (JoinType jt : join_types) {
        auto row_type = DeriveJoinRowType(lt, rt, jt, tf_);
        const std::string label = std::string(JoinTypeName(jt)) + " keys=" +
                                  std::to_string(keys[0].first) + "/" +
                                  std::to_string(keys[0].second) + "x" +
                                  std::to_string(keys.size()) +
                                  " n=" + std::to_string(n) +
                                  " m=" + std::to_string(m);
        ExpectColumnarParity(
            EnumerableHashJoin::Create(left, right, equi, jt, row_type),
            label, AccessPath::kAuto, batch_sizes);
        if (keys.size() > 1 || keys[0].first == 1) {
          ExpectColumnarParity(
              EnumerableHashJoin::Create(left, right, with_residual, jt,
                                         row_type),
              label + " residual", AccessPath::kAuto, batch_sizes);
        }
      }
    }
  }
}

TEST_F(ColumnarParityTest, ColumnarHashJoinResidualErrorsMatchReference) {
  // Build rows (key 1, id 10) then (key 1, id 5); the residual
  // 100 / (r.id - 5) > 0 passes on the first pair and divides by zero on
  // the second. A SEMI join stops at the first passing pair, so it must
  // not fail; an INNER join evaluates every pair, so it must.
  auto int_t = tf_.CreateSqlType(SqlTypeName::kInteger);
  auto kt = tf_.CreateStructType({"id", "k"}, {int_t, int_t});
  std::vector<Row> probe_rows;
  for (int64_t i = 0; i < 2000; ++i) {
    probe_rows.push_back({Value::Int(i), Value::Int(i % 3)});
  }
  RelNodePtr left = ScanOf(std::make_shared<MemTable>(kt, probe_rows));
  RelNodePtr right = ScanOf(std::make_shared<MemTable>(
      kt, std::vector<Row>{{Value::Int(10), Value::Int(1)},
                           {Value::Int(5), Value::Int(1)},
                           {Value::Int(7), Value::Int(2)}}));
  const RelDataTypePtr& lt = left->row_type();
  auto rid = rex_.MakeInputRef(2, int_t);
  RexNodePtr cond = rex_.MakeAnd(
      {rex_.MakeEquals(Field(lt, 1), rex_.MakeInputRef(3, int_t)),
       Call(OpKind::kGreaterThan,
            {Call(OpKind::kDivide,
                  {rex_.MakeIntLiteral(100),
                   Call(OpKind::kMinus, {rid, rex_.MakeIntLiteral(5)})}),
             rex_.MakeIntLiteral(0)})});
  for (JoinType jt : {JoinType::kSemi, JoinType::kInner}) {
    RelNodePtr join = EnumerableHashJoin::Create(
        left, right, cond, jt, DeriveJoinRowType(lt, right->row_type(), jt,
                                                 tf_));
    if (jt == JoinType::kSemi) {
      ExpectColumnarParity(join, "SEMI residual stops at first pass",
                           AccessPath::kAuto, {1, 3, 1023, 1024, 1025});
      continue;
    }
    for (bool columnar : {false, true}) {
      for (size_t bs : {size_t{1}, size_t{1024}}) {
        ExecOptions opts;
        opts.enable_columnar = columnar;
        opts.batch_size = bs;
        auto got = RunPlan(join, opts);
        ASSERT_FALSE(got.ok()) << "columnar=" << columnar << " bs=" << bs;
        EXPECT_NE(got.status().message().find("division by zero"),
                  std::string::npos)
            << got.status().ToString();
      }
    }
  }
}

TEST_F(ColumnarParityTest, ColumnarHashJoinOverJoinsAndDiskTables) {
  char tmpl[] = "/tmp/calcite_colpar_join_XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string dir_path = dir;
  auto disk = [&](const std::string& name, std::vector<Row> rows) {
    storage::DiskTableOptions dt_opts;
    dt_opts.pool_pages = 8;
    auto table = storage::DiskTable::Create(dir_path + "/" + name + ".db",
                                            JoinKeyRowType(tf_), 0, dt_opts);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_TRUE((*table)->InsertRows(std::move(rows)).ok());
    return ScanOf(*table);
  };
  RelNodePtr a = disk("a", MakeJoinKeyRows(1100, 37, 0));
  RelNodePtr b = disk("b", MakeJoinKeyRows(60, 41, 0));
  RelNodePtr c = ScanOf(std::make_shared<MemTable>(
      JoinKeyRowType(tf_), MakeJoinKeyRows(50, 43, 0)));
  const std::vector<size_t> batch_sizes = {1, 3, 1023, 1024, 1025};
  const RelDataTypePtr& at = a->row_type();
  const int aw = static_cast<int>(at->fields().size());
  for (JoinType inner_jt : {JoinType::kInner, JoinType::kFull}) {
    RelNodePtr ab = EnumerableHashJoin::Create(
        a, b,
        rex_.MakeEquals(Field(at, 1),
                        rex_.MakeInputRef(aw + 1, b->row_type()->fields()[1].type)),
        inner_jt, DeriveJoinRowType(at, b->row_type(), inner_jt, tf_));
    ExpectColumnarParity(ab, std::string("disk ") + JoinTypeName(inner_jt),
                         AccessPath::kAuto, batch_sizes);
    // The join's output probes (and builds) a second join: keyed on the
    // string column of its build side and on the composite (ki, ks).
    const RelDataTypePtr& abt = ab->row_type();
    const int abw = static_cast<int>(abt->fields().size());
    for (JoinType outer_jt : {JoinType::kInner, JoinType::kLeft,
                              JoinType::kRight, JoinType::kAnti}) {
      RexNodePtr cond = rex_.MakeAnd(
          {rex_.MakeEquals(Field(abt, aw + 3),
                           rex_.MakeInputRef(abw + 3, c->row_type()->fields()[3].type)),
           rex_.MakeEquals(Field(abt, 1),
                           rex_.MakeInputRef(abw + 1, c->row_type()->fields()[1].type))});
      ExpectColumnarParity(
          EnumerableHashJoin::Create(
              ab, c, cond, outer_jt,
              DeriveJoinRowType(abt, c->row_type(), outer_jt, tf_)),
          std::string("join over ") + JoinTypeName(inner_jt) + " probe " +
              JoinTypeName(outer_jt),
          AccessPath::kAuto, batch_sizes);
      const RelDataTypePtr& ct = c->row_type();
      const int cw = static_cast<int>(ct->fields().size());
      ExpectColumnarParity(
          EnumerableHashJoin::Create(
              c, ab,
              rex_.MakeEquals(Field(ct, 1),
                              rex_.MakeInputRef(cw + aw + 1, abt->fields()[static_cast<size_t>(aw + 1)].type)),
              outer_jt, DeriveJoinRowType(ct, abt, outer_jt, tf_)),
          std::string("join over ") + JoinTypeName(inner_jt) + " build " +
              JoinTypeName(outer_jt),
          AccessPath::kAuto, batch_sizes);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir_path, ec);
}

TEST_F(ColumnarParityTest, PipelineScanFilterProjectAggregate) {
  // The full converted pipeline in one plan, the hot-path shape the
  // benchmark sweeps measure.
  for (size_t n : kCardinalities) {
    RelNodePtr scan = Scan(n);
    const RelDataTypePtr& rt = scan->row_type();
    auto cond = rex_.MakeCall(OpKind::kLessThan,
                              {Field(rt, 0), rex_.MakeIntLiteral(999)});
    ASSERT_TRUE(cond.ok());
    RelNodePtr filtered = EnumerableFilter::Create(scan, cond.value());
    auto twice = rex_.MakeCall(OpKind::kTimes,
                               {Field(rt, 0), rex_.MakeIntLiteral(2)});
    ASSERT_TRUE(twice.ok());
    std::vector<RexNodePtr> exprs = {Field(rt, 1), twice.value(),
                                     Field(rt, 3)};
    auto proj_type = DeriveProjectRowType(exprs, {"k", "id2", "d"}, tf_);
    RelNodePtr projected =
        EnumerableProject::Create(filtered, exprs, proj_type);
    std::vector<AggregateCall> calls;
    {
      AggregateCall c;
      c.kind = AggKind::kCountStar;
      c.name = "cnt";
      calls.push_back(c);
      c.kind = AggKind::kSum;
      c.args = {1};
      c.name = "sum_id2";
      calls.push_back(c);
      c.kind = AggKind::kAvg;
      c.args = {2};
      c.name = "avg_d";
      calls.push_back(c);
    }
    auto agg_type = DeriveAggregateRowType(proj_type, {0}, calls, tf_);
    ExpectColumnarParity(
        EnumerableAggregate::Create(projected, {0}, calls, agg_type),
        "Pipeline n=" + std::to_string(n));
  }
}

TEST_F(ColumnarParityTest, OperatorsOverJoinAndAggregateOutputs) {
  // Filter, Project and Aggregate over the ColumnBatches a join, a sort
  // and the set ops gather, and over an aggregate's emitted groups.
  for (size_t n : {size_t{0}, size_t{1}, size_t{1025}}) {
    RelNodePtr left = Scan(n);
    RelNodePtr right = Scan(97);
    const RelDataTypePtr& lt = left->row_type();
    const RelDataTypePtr& rt = right->row_type();
    const int left_width = static_cast<int>(lt->fields().size());
    RexNodePtr equi = rex_.MakeEquals(
        Field(lt, 1), rex_.MakeInputRef(left_width + 1, rt->fields()[1].type));
    for (JoinType jt : {JoinType::kInner, JoinType::kLeft}) {
      RelNodePtr join = EnumerableHashJoin::Create(
          left, right, equi, jt, DeriveJoinRowType(lt, rt, jt, tf_));
      ExpectOperatorParity(join, std::string("over ") + JoinTypeName(jt) +
                                     " join n=" + std::to_string(n));
    }

    // A sort window on a total order (id breaks every tie), so the rows
    // it keeps do not depend on its input's order.
    const int64_t fetch = static_cast<int64_t>(n / 2 + 1);
    ExpectOperatorParity(
        EnumerableSort::Create(
            left,
            RelCollation({{1, Direction::kDescending},
                          {0, Direction::kAscending}}),
            3, fetch),
        "over sort offset 3 fetch " + std::to_string(fetch) +
            " n=" + std::to_string(n));

    // The second input's rows pass a residual (id > k): its batches carry
    // a selection, compacted when INTERSECT or EXCEPT keeps them.
    RelNodePtr half = Scan(n / 2 + 1);
    RelNodePtr filtered = EnumerableFilter::Create(
        half, Call(OpKind::kGreaterThan,
                   {Field(half->row_type(), 0), Field(half->row_type(), 1)}));
    for (auto kind : {SetOp::Kind::kUnion, SetOp::Kind::kIntersect,
                      SetOp::Kind::kMinus}) {
      for (bool all : {false, true}) {
        ExpectOperatorParity(
            EnumerableSetOp::Create({left, filtered}, kind, all, lt),
            "over set op kind " + std::to_string(static_cast<int>(kind)) +
                " all " + std::to_string(all) + " n=" + std::to_string(n));
      }
    }

    // Aggregate over an aggregate: group counts per (k, s), then the number
    // of groups per count.
    const std::vector<AggregateCall> inner_calls = CountSumMin(0, 3);
    RelNodePtr inner = EnumerableAggregate::Create(
        left, {1, 2}, inner_calls,
        DeriveAggregateRowType(lt, {1, 2}, inner_calls, tf_));
    const std::vector<AggregateCall> outer_calls = CountSumMin(3, 1);
    for (const std::vector<int>& keys :
         {std::vector<int>{}, std::vector<int>{2}}) {
      ExpectColumnarParity(
          EnumerableAggregate::Create(
              inner, keys, outer_calls,
              DeriveAggregateRowType(inner->row_type(), keys, outer_calls,
                                     tf_)),
          "aggregate over aggregate keys=" + std::to_string(keys.size()) +
              " n=" + std::to_string(n));
    }
  }
}

/// Sort parity: the columnar sort (typed key arrays, a permutation, partial
/// sort under a fetch) must reproduce the reference stable sort row for row,
/// in order, at batch sizes 1 and 1024. At 4 threads a parallel input may
/// arrive in another order, so ties may pick other rows: there the sequence
/// of sort-key tuples must still match under Value equality.
void ExpectSortParity(const RelNodePtr& sort, const RelCollation& collation,
                      const std::string& label) {
  ExecOptions row_opts;
  row_opts.enable_columnar = false;
  auto base = RunPlan(sort, row_opts);
  ASSERT_TRUE(base.ok()) << label << ": " << base.status().ToString();
  const std::vector<Row>& want = base.value();
  for (size_t bs : {size_t{1}, size_t{1024}}) {
    ExecOptions col_opts;
    col_opts.batch_size = bs;
    auto got = RunPlan(sort, col_opts);
    ASSERT_TRUE(got.ok()) << label << " bs=" << bs << ": "
                          << got.status().ToString();
    ASSERT_EQ(Strings(got.value()), Strings(want)) << label << " bs=" << bs;
  }
  ExecOptions par_opts;
  par_opts.num_threads = 4;
  auto got = RunPlan(sort, par_opts);
  ASSERT_TRUE(got.ok()) << label << " threads=4: " << got.status().ToString();
  ASSERT_EQ(got.value().size(), want.size()) << label << " threads=4";
  for (size_t i = 0; i < want.size(); ++i) {
    for (const FieldCollation& fc : collation.fields()) {
      const size_t f = static_cast<size_t>(fc.field);
      ASSERT_EQ(got.value()[i][f].Compare(want[i][f]), 0)
          << label << " threads=4 row " << i << " field " << f;
    }
  }
}

/// TestRowType plus m DOUBLE?, a column whose rows mix Int and Double
/// values — Int(2) next to Double(2.0), fractional doubles, -1.5 and NULLs.
/// A table decomposition carries it boxed (kValue); decoding row batches
/// gives kDouble for all-double batches and kValue for the others.
RelDataTypePtr MixedRowType(const TypeFactory& tf) {
  const RelDataTypePtr base = TestRowType(tf);
  std::vector<std::string> names;
  std::vector<RelDataTypePtr> types;
  for (const auto& field : base->fields()) {
    names.push_back(field.name);
    types.push_back(field.type);
  }
  names.push_back("m");
  types.push_back(tf.CreateSqlType(SqlTypeName::kDouble, -1, true));
  return tf.CreateStructType(names, types);
}

std::vector<Row> MakeMixedRows(size_t n) {
  std::vector<Row> rows = MakeRows(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(i % 5);
    Value m;
    switch (i % 6) {
      case 0:
        break;  // NULL
      case 1:
        m = Value::Double(-1.5);
        break;
      case 2:
        m = Value::Int(v);
        break;
      case 3:
        m = Value::Double(static_cast<double>(v));
        break;
      case 4:
        m = Value::Double(static_cast<double>(v) + 0.5);
        break;
      default:
        m = Value::Int(2);
        break;
    }
    rows[i].push_back(std::move(m));
  }
  return rows;
}

TEST_F(ColumnarParityTest, SortMatchesStableSort) {
  using D = Direction;
  const std::vector<RelCollation> collations = {
      RelCollation({{1, D::kAscending}}),   // int key, NULLs, duplicates
      RelCollation({{1, D::kDescending}}),  // DESC puts NULLs last
      RelCollation({{3, D::kDescending}, {1, D::kAscending}}),  // double, int
      RelCollation({{2, D::kAscending}}),                       // strings
      RelCollation({{4, D::kDescending}, {2, D::kDescending},
                    {0, D::kAscending}}),  // bool, string, unique id
      RelCollation(),                      // OFFSET/FETCH only
  };
  for (size_t n : {size_t{0}, size_t{1}, size_t{1025}}) {
    RelNodePtr scan = Scan(n);
    const RelDataTypePtr& rt = scan->row_type();
    // id > k is a residual: its batches reach the sort with a selection.
    RelNodePtr filtered = EnumerableFilter::Create(
        scan, Call(OpKind::kGreaterThan, {Field(rt, 0), Field(rt, 1)}));
    // Projecting the filtered rows writes the columns into the project's
    // arena, which the sort compacts into its own — through the selection
    // when a filter above the projection narrows it again.
    std::vector<RexNodePtr> exprs = {
        Field(rt, 0), Field(rt, 1), Field(rt, 2),
        Call(OpKind::kTimes, {Field(rt, 3), rex_.MakeDoubleLiteral(2.0)}),
        Field(rt, 4)};
    RelNodePtr projected = EnumerableProject::Create(
        filtered, exprs,
        DeriveProjectRowType(exprs, {"id", "k", "s", "d2", "f"}, tf_));
    const RelDataTypePtr& pt = projected->row_type();
    RelNodePtr refiltered = EnumerableFilter::Create(
        projected, rex_.MakeOr({Call(OpKind::kIsNull, {Field(pt, 3)}),
                                Call(OpKind::kGreaterThan,
                                     {Field(pt, 3), Field(pt, 1)})}));
    const int64_t ni = static_cast<int64_t>(n);
    // {offset, fetch}: full sort, LIMIT 0, a small top-N, an offset window,
    // an offset past the end, a fetch larger than n, an offset alone.
    const std::vector<std::pair<int64_t, int64_t>> windows = {
        {0, -1}, {0, 0}, {0, 10}, {7, 5}, {ni + 3, 10}, {0, ni + 100},
        {2, -1}};
    for (const RelNodePtr& input : {scan, filtered, projected, refiltered}) {
      for (size_t c = 0; c < collations.size(); ++c) {
        for (const auto& [offset, fetch] : windows) {
          ExpectSortParity(
              EnumerableSort::Create(input, collations[c], offset, fetch),
              collations[c], input->op_name() + " collation " +
                                 std::to_string(c) + " offset " +
                                 std::to_string(offset) + " fetch " +
                                 std::to_string(fetch) + " n=" +
                                 std::to_string(n));
        }
      }
    }
  }
}

TEST_F(ColumnarParityTest, SortMixedNumericKeyComparesBoxed) {
  const RelDataTypePtr row_type = MixedRowType(tf_);
  const std::vector<Row> rows = MakeMixedRows(1025);
  auto table = std::make_shared<MemTable>(row_type, rows);
  RelNodePtr scan = ScanOf(table);
  // Projecting filtered rows gathers the boxed m into the project's batch.
  std::vector<RexNodePtr> exprs;
  std::vector<std::string> names;
  for (int c = 0; c < 6; ++c) {
    exprs.push_back(Field(row_type, c));
    names.push_back(row_type->fields()[static_cast<size_t>(c)].name);
  }
  RelNodePtr projected = EnumerableProject::Create(
      EnumerableFilter::Create(
          scan, Call(OpKind::kGreaterThan,
                     {Field(row_type, 0), Field(row_type, 1)})),
      exprs, DeriveProjectRowType(exprs, names, tf_));
  // The MemTable scan boxes m in every batch; Values decodes each row batch,
  // so batches disagree on m's physical class.
  for (const RelNodePtr& input :
       {scan, EnumerableValues::Create(row_type, rows), projected}) {
    for (Direction dir : {Direction::kAscending, Direction::kDescending}) {
      const RelCollation by_m({{5, dir}});
      for (int64_t fetch : {int64_t{-1}, int64_t{20}}) {
        ExpectSortParity(EnumerableSort::Create(input, by_m, 0, fetch), by_m,
                         input->op_name() + " mixed key fetch " +
                             std::to_string(fetch));
      }
    }
  }
}

TEST_F(ColumnarParityTest, SortOverJoinAndAggregateOutputs) {
  using D = Direction;
  for (size_t n : {size_t{0}, size_t{1025}}) {
    RelNodePtr left = Scan(n);
    RelNodePtr right = Scan(97);
    const RelDataTypePtr& lt = left->row_type();
    const RelDataTypePtr& rt = right->row_type();
    const int left_width = static_cast<int>(lt->fields().size());
    RexNodePtr equi = rex_.MakeEquals(
        Field(lt, 1), rex_.MakeInputRef(left_width + 1, rt->fields()[1].type));
    RelNodePtr join = EnumerableHashJoin::Create(
        left, right, equi, JoinType::kInner,
        DeriveJoinRowType(lt, rt, JoinType::kInner, tf_));
    const RelCollation by_join(
        {{3, D::kDescending}, {left_width + 2, D::kAscending}});
    for (int64_t fetch : {int64_t{-1}, int64_t{15}}) {
      ExpectSortParity(EnumerableSort::Create(join, by_join, 0, fetch),
                       by_join, "over join fetch " + std::to_string(fetch) +
                                    " n=" + std::to_string(n));
    }

    const std::vector<AggregateCall> calls = CountSumMin(0, 3);
    RelNodePtr agg = EnumerableAggregate::Create(
        left, {1, 2}, calls, DeriveAggregateRowType(lt, {1, 2}, calls, tf_));
    const RelCollation by_agg(
        {{2, D::kDescending}, {4, D::kAscending}, {1, D::kDescending}});
    for (int64_t fetch : {int64_t{-1}, int64_t{5}}) {
      ExpectSortParity(EnumerableSort::Create(agg, by_agg, 1, fetch), by_agg,
                       "over aggregate fetch " + std::to_string(fetch) +
                           " n=" + std::to_string(n));
    }
  }
}

// Set ops resolve rows to key ids in the columnar aggregate's key table and
// emit in the reference order: input 0 order for INTERSECT/EXCEPT, first
// occurrence across inputs for UNION. NaN is left out here and below: it
// compares equal to every number under Value::Compare but not under Value
// hashing, so neither engine pins where it groups or sorts.
TEST_F(ColumnarParityTest, SetOps) {
  const std::vector<std::vector<int>> projections = {{1}, {1, 2}, {3, 4, 2}};
  for (size_t n : {size_t{0}, size_t{1}, size_t{1025}}) {
    RelNodePtr a = Scan(n);
    // b's rows pass a residual filter (id > k), so its batches carry a
    // selection and its projections are written into an arena (compacted
    // when b is input 0).
    RelNodePtr b_scan = Scan(n / 2 + 1);
    const RelDataTypePtr& bt = b_scan->row_type();
    RelNodePtr b = EnumerableFilter::Create(
        b_scan, Call(OpKind::kGreaterThan, {Field(bt, 0), Field(bt, 1)}));
    for (const std::vector<int>& cols : projections) {
      std::vector<RexNodePtr> exprs;
      std::vector<std::string> names;
      for (int c : cols) {
        exprs.push_back(Field(a->row_type(), c));
        names.push_back("c" + std::to_string(c));
      }
      auto type = DeriveProjectRowType(exprs, names, tf_);
      RelNodePtr pa = EnumerableProject::Create(a, exprs, type);
      RelNodePtr pb = EnumerableProject::Create(b, exprs, type);
      for (auto kind : {SetOp::Kind::kUnion, SetOp::Kind::kIntersect,
                        SetOp::Kind::kMinus}) {
        for (bool all : {false, true}) {
          const std::string label =
              "kind " + std::to_string(static_cast<int>(kind)) + " all " +
              std::to_string(all) + " width " + std::to_string(cols.size()) +
              " n=" + std::to_string(n);
          ExpectColumnarParity(
              EnumerableSetOp::Create({pa, pb}, kind, all, type), label);
          ExpectColumnarParity(
              EnumerableSetOp::Create({pb, pa, pb}, kind, all, type),
              label + " three inputs");
        }
      }
    }
  }
}

TEST_F(ColumnarParityTest, SetOpsUnifyIntAndDouble) {
  // Left carries m boxed (Int(2) among its values), right as typed doubles
  // (Double(2.0)): the key table must treat them as one value and keep the
  // representation the reference keeps.
  auto dbl_null = tf_.CreateSqlType(SqlTypeName::kDouble, -1, true);
  auto row_type = tf_.CreateStructType({"m"}, {dbl_null});
  std::vector<Row> left_rows = {{Value::Int(2)},       {Value::Null()},
                                {Value::Double(3.5)},  {Value::Int(7)},
                                {Value::Null()},       {Value::Int(2)},
                                {Value::Double(-1.0)}};
  std::vector<Row> right_rows = {{Value::Double(2.0)}, {Value::Null()},
                                 {Value::Double(7.5)}, {Value::Double(2.0)},
                                 {Value::Double(-1.0)}};
  RelNodePtr left =
      ScanOf(std::make_shared<MemTable>(row_type, std::move(left_rows)));
  RelNodePtr right =
      ScanOf(std::make_shared<MemTable>(row_type, std::move(right_rows)));
  for (auto kind : {SetOp::Kind::kUnion, SetOp::Kind::kIntersect,
                    SetOp::Kind::kMinus}) {
    for (bool all : {false, true}) {
      for (const auto& inputs : {std::vector<RelNodePtr>{left, right},
                                 std::vector<RelNodePtr>{right, left}}) {
        ExpectColumnarParity(
            EnumerableSetOp::Create(inputs, kind, all, row_type),
            "mixed kind " + std::to_string(static_cast<int>(kind)) + " all " +
                std::to_string(all) + " left first " +
                std::to_string(inputs[0] == left));
      }
    }
  }

  // Filter, Project and Aggregate over set ops of the same mix in a wide
  // table (TestRowType plus m). A Values input decodes each row batch on
  // its own, so the batches INTERSECT and EXCEPT keep disagree on m's
  // class (kDouble where a batch holds only doubles, boxed elsewhere) and
  // their gather falls back to boxed cells; the MemTable carries m boxed.
  const RelDataTypePtr wide = MixedRowType(tf_);
  const std::vector<Row> mixed = MakeMixedRows(1025);
  RelNodePtr values = EnumerableValues::Create(wide, mixed);
  RelNodePtr table = ScanOf(std::make_shared<MemTable>(
      wide, std::vector<Row>(mixed.begin(), mixed.begin() + 300)));
  for (auto kind : {SetOp::Kind::kUnion, SetOp::Kind::kIntersect,
                    SetOp::Kind::kMinus}) {
    for (bool all : {false, true}) {
      for (const auto& inputs : {std::vector<RelNodePtr>{values, table},
                                 std::vector<RelNodePtr>{table, values}}) {
        ExpectOperatorParity(
            EnumerableSetOp::Create(inputs, kind, all, wide),
            "over wide mixed kind " + std::to_string(static_cast<int>(kind)) +
                " all " + std::to_string(all) + " values first " +
                std::to_string(inputs[0] == values));
      }
    }
  }
}

TEST_F(ColumnarParityTest, DistinctAggregates) {
  // COUNT, SUM, AVG and MIN (DISTINCT ...) over ints (typed int64 dedup),
  // doubles both integral and fractional, the mixed Int/Double column, and
  // strings (COUNT and MIN only); NULLs everywhere. The 4-thread leg merges
  // per-worker distinct sets (AggAccumulator::MergeFrom).
  auto distinct = [](AggKind kind, int arg) {
    AggregateCall c;
    c.kind = kind;
    c.args = {arg};
    c.distinct = true;
    c.name = "a" + std::to_string(arg);
    return c;
  };
  std::vector<AggregateCall> calls;
  for (int arg : {1, 3, 5}) {
    for (AggKind kind :
         {AggKind::kCount, AggKind::kSum, AggKind::kAvg, AggKind::kMin}) {
      calls.push_back(distinct(kind, arg));
    }
  }
  calls.push_back(distinct(AggKind::kCount, 2));
  calls.push_back(distinct(AggKind::kMin, 2));
  const RelDataTypePtr row_type = MixedRowType(tf_);
  for (size_t n : {size_t{0}, size_t{1}, size_t{1025}, size_t{5000}}) {
    const std::vector<Row> rows = MakeMixedRows(n);
    RelNodePtr scan = ScanOf(std::make_shared<MemTable>(row_type, rows));
    for (const RelNodePtr& input :
         {scan, EnumerableValues::Create(row_type, rows)}) {
      for (const std::vector<int>& keys :
           {std::vector<int>{}, std::vector<int>{4}, std::vector<int>{1}}) {
        ExpectColumnarParity(
            EnumerableAggregate::Create(
                input, keys, calls,
                DeriveAggregateRowType(row_type, keys, calls, tf_)),
            input->op_name() + " distinct keys=" +
                std::to_string(keys.size()) + " n=" + std::to_string(n));
      }
    }
  }
}

// Both engines share AggAccumulator's distinct set, so the parity above
// cannot see its semantics; these pin them: Value::Compare equality (Int(2)
// is Double(2.0), -0.0 is 0), first-seen representation, and a merge that
// replays other's values in the representation other saw first.
TEST(DistinctValuesTest, FollowValueEquality) {
  AggregateCall count;
  count.kind = AggKind::kCount;
  count.args = {0};
  count.distinct = true;
  AggAccumulator counter(count);
  for (const Value& v :
       {Value::Int(2), Value::Double(2.0), Value::Double(-0.0), Value::Int(0),
        Value::Double(2.5), Value::String("2"), Value::Null(),
        Value::Double(0x1p62), Value::Int(int64_t{1} << 62)}) {
    ASSERT_TRUE(counter.Add({v}).ok());
  }
  EXPECT_EQ(counter.Finish().ToString(), "5");  // 2, 0, 2.5, '2', 2^62

  AggregateCall sum = count;
  sum.kind = AggKind::kSum;
  AggAccumulator serial(sum);
  for (const Value& v : {Value::Double(2.0), Value::Int(2), Value::Int(3)}) {
    ASSERT_TRUE(serial.AddNonNullValue(v).ok());
  }
  EXPECT_EQ(serial.Finish().ToString(), Value::Double(5.0).ToString());

  AggAccumulator empty(sum);
  AggAccumulator other(sum);
  ASSERT_TRUE(other.AddNonNullValue(Value::Double(2.0)).ok());
  ASSERT_TRUE(other.AddNonNullInt64Distinct(2).ok());
  ASSERT_TRUE(empty.MergeFrom(other).ok());
  EXPECT_EQ(empty.Finish().ToString(), Value::Double(2.0).ToString());

  AggregateCall min = count;
  min.kind = AggKind::kMin;
  AggAccumulator min_empty(min);
  AggAccumulator min_other(min);
  ASSERT_TRUE(min_other.AddNonNullValue(Value::Double(-0.0)).ok());
  ASSERT_TRUE(min_empty.MergeFrom(min_other).ok());
  EXPECT_EQ(min_empty.Finish().ToString(), "-0.0");
}

TEST_F(ColumnarParityTest, OperatorsOverDiskTable) {
  // A DiskTable has no columnar decomposition: a Filter pushes its simple
  // conjuncts through OpenScan and decodes the survivors into columns, and
  // Project and Aggregate decode the scan's row batches.
  char tmpl[] = "/tmp/calcite_colpar_ops_XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string dir_path = dir;
  for (size_t n : {size_t{0}, size_t{1}, size_t{1025}, size_t{4000}}) {
    storage::DiskTableOptions dt_opts;
    dt_opts.pool_pages = 8;
    auto table = storage::DiskTable::Create(
        dir_path + "/t" + std::to_string(n) + ".db", TestRowType(tf_), 0,
        dt_opts);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE((*table)->InsertRows(MakeRows(n)).ok());
    for (AccessPath path : {AccessPath::kForceIndex, AccessPath::kForceHeap}) {
      ExpectOperatorParity(ScanOf(*table),
                           "disk n=" + std::to_string(n) + " path=" +
                               std::to_string(static_cast<int>(path)),
                           path);
    }
    EXPECT_EQ((*table)->buffer_pool().pinned_frames(), 0u);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir_path, ec);
}

// A Filter right above a scan splits the same way serially and inside
// morsel workers: its simple conjuncts run in the leaf (a fused range over
// MemTable slices, the unit-ranged OpenScan of a DiskTable) and only the
// residual is evaluated on the survivors. Results match the row reference
// at 1 and 4 threads; a residual dividing by zero on a row the pushed
// conjuncts keep fails everywhere, and one whose zero divisor they drop
// fails nowhere.
TEST_F(ColumnarParityTest, PushedAndResidualFilterMatchAcrossThreads) {
  char tmpl[] = "/tmp/calcite_colpar_push_XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string dir_path = dir;
  constexpr size_t kN = 20000;
  storage::DiskTableOptions dt_opts;
  dt_opts.pool_pages = 8;
  dt_opts.pages_per_run = 2;
  auto disk = storage::DiskTable::Create(dir_path + "/t.db", TestRowType(tf_),
                                         0, dt_opts);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_TRUE((*disk)->InsertRows(MakeRows(kN)).ok());
  ASSERT_GT((*disk)->ScanUnitCount(), 1u);
  const std::vector<std::pair<std::string, RelNodePtr>> leaves = {
      {"mem", Scan(kN)}, {"disk", ScanOf(*disk)}};
  for (const auto& [name, leaf] : leaves) {
    const RelDataTypePtr& rt = leaf->row_type();
    // id in [100, 15000) and s = 's3' push; the residual stays a stage.
    auto filter = [&](RexNodePtr residual) {
      return EnumerableFilter::Create(
          leaf,
          rex_.MakeAnd(
              {Call(OpKind::kGreaterThanOrEqual,
                    {Field(rt, 0), rex_.MakeIntLiteral(100)}),
               Call(OpKind::kLessThan,
                    {Field(rt, 0), rex_.MakeIntLiteral(15000)}),
               Call(OpKind::kEquals,
                    {Field(rt, 2), rex_.MakeStringLiteral("s3")}),
               std::move(residual)}));
    };
    // 100 / (id - c) > 0 divides by zero at id = c.
    auto poison = [&](int64_t c) {
      return Call(
          OpKind::kGreaterThan,
          {Call(OpKind::kDivide,
                {rex_.MakeIntLiteral(100),
                 Call(OpKind::kMinus, {Field(rt, 0), rex_.MakeIntLiteral(c)})}),
           rex_.MakeIntLiteral(0)});
    };
    ExpectColumnarParity(
        filter(Call(OpKind::kGreaterThan,
                    {Call(OpKind::kPlus, {Field(rt, 1), Field(rt, 3)}),
                     rex_.MakeDoubleLiteral(2.0)})),
        name + " residual", AccessPath::kAuto, {1, 1024});
    // Row 47 has s = 's3' but id < 100: the pushed range drops it first.
    ExpectColumnarParity(filter(poison(47)), name + " dropped poison",
                         AccessPath::kAuto, {1, 1024});
    // Row 498 passes every pushed conjunct, so its division raises.
    RelNodePtr raising = filter(poison(498));
    ExecOptions row_opts;
    row_opts.enable_columnar = false;
    auto want = RunPlan(raising, row_opts);
    ASSERT_FALSE(want.ok()) << name;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExecOptions opts;
      opts.num_threads = threads;
      auto got = RunPlan(raising, opts);
      ASSERT_FALSE(got.ok()) << name << " threads=" << threads;
      EXPECT_EQ(got.status().ToString(), want.status().ToString())
          << name << " threads=" << threads;
    }
  }
  EXPECT_EQ((*disk)->buffer_pool().pinned_frames(), 0u);
  std::error_code ec;
  std::filesystem::remove_all(dir_path, ec);
}

// A residual AND stops at the first conjunct a row fails, on both engines:
// the reference evaluates its conjuncts in order, as the columnar filter
// narrows by them, so `10 / u` is never evaluated for the row whose x is
// NULL. Checked over a projection and over a bare scan where no conjunct
// pushes (the first is not `$col <op> literal`), so the whole AND is the
// residual in both.
TEST_F(ColumnarParityTest, ResidualAndStopsAtFirstFailingConjunct) {
  auto int_null = tf_.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto int_t = tf_.CreateSqlType(SqlTypeName::kInteger);
  auto row_type = tf_.CreateStructType({"x", "u"}, {int_null, int_t});
  RelNodePtr scan = ScanOf(std::make_shared<MemTable>(
      row_type, std::vector<Row>{{Value::Null(), Value::Int(0)},
                                 {Value::Int(1), Value::Int(2)}}));
  std::vector<RexNodePtr> refs = {Field(row_type, 0), Field(row_type, 1)};
  RelNodePtr projected = EnumerableProject::Create(
      scan, refs, DeriveProjectRowType(refs, {"x", "u"}, tf_));
  const RexNodePtr zero = rex_.MakeIntLiteral(0);
  const RexNodePtr divides = Call(
      OpKind::kGreaterThan,
      {Call(OpKind::kDivide, {rex_.MakeIntLiteral(10), Field(row_type, 1)}),
       zero});
  const RexNodePtr x_positive =
      Call(OpKind::kGreaterThan, {Field(row_type, 0), zero});
  const RexNodePtr x_plus_zero_positive = Call(
      OpKind::kGreaterThan,
      {Call(OpKind::kPlus, {Field(row_type, 0), zero}), zero});
  const std::vector<std::pair<std::string, RelNodePtr>> filters = {
      {"project", EnumerableFilter::Create(
                      projected, rex_.MakeAnd({x_positive, divides}))},
      {"bare scan", EnumerableFilter::Create(
                        scan, rex_.MakeAnd({x_plus_zero_positive, divides}))}};
  for (const auto& [label, filter] : filters) {
    for (bool columnar : {false, true}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        for (size_t bs : {size_t{1}, size_t{1024}}) {
          ExecOptions opts;
          opts.enable_columnar = columnar;
          opts.num_threads = threads;
          opts.batch_size = bs;
          const std::string where = label + " columnar=" +
                                    std::to_string(columnar) + " threads=" +
                                    std::to_string(threads) +
                                    " bs=" + std::to_string(bs);
          auto got = RunPlan(filter, opts);
          ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
          EXPECT_EQ(Strings(got.value()), std::vector<std::string>{"[1, 2]"})
              << where;
        }
      }
    }
  }
}

TEST_F(ColumnarParityTest, DiskTableScansBypassColumnarCache) {
  // A DiskTable exposes no columnar decomposition (MaterializedColumns is
  // nullptr — decomposing would pin the whole table in RAM), so serial
  // columnar execution decodes its row batches into columns and must still
  // match the row path exactly, and 4-way parallel execution decodes page
  // runs into ColumnBatches, with the buffer pool far smaller than the
  // table.
  // Exercised bare and under a filter whose primary-key conjunct routes to
  // the B-tree on the serial path, with the index forced on and off.
  char tmpl[] = "/tmp/calcite_colpar_disk_XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string dir_path = dir;

  for (size_t n : {size_t{0}, size_t{1}, size_t{1025}, size_t{4000}}) {
    storage::DiskTableOptions dt_opts;
    dt_opts.pool_pages = 8;
    auto table = storage::DiskTable::Create(
        dir_path + "/t" + std::to_string(n) + ".db", TestRowType(tf_), 0,
        dt_opts);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE((*table)->InsertRows(MakeRows(n)).ok());
    TypeFactory tf;
    EXPECT_EQ((*table)->MaterializedColumns(tf), nullptr);

    RelNodePtr scan = ScanOf(*table);
    ExpectColumnarParity(scan, "DiskScan n=" + std::to_string(n));

    const RelDataTypePtr& rt = scan->row_type();
    auto key_range = rex_.MakeCall(OpKind::kLessThan,
                                   {Field(rt, 0), rex_.MakeIntLiteral(500)});
    ASSERT_TRUE(key_range.ok());
    auto residual = rex_.MakeCall(OpKind::kIsNotNull, {Field(rt, 3)});
    ASSERT_TRUE(residual.ok());
    RelNodePtr filtered = EnumerableFilter::Create(
        scan, rex_.MakeAnd({key_range.value(), residual.value()}));
    for (AccessPath path : {AccessPath::kForceIndex, AccessPath::kForceHeap}) {
      ExpectColumnarParity(filtered,
                           "DiskFilter n=" + std::to_string(n) + " path=" +
                               std::to_string(static_cast<int>(path)),
                           path);
    }
    EXPECT_EQ((*table)->buffer_pool().pinned_frames(), 0u);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir_path, ec);
}

TEST_F(ColumnarParityTest, MutationInvalidatesColumnarCache) {
  auto table = std::make_shared<MemTable>(TestRowType(tf_), MakeRows(10));
  RelNodePtr scan = ScanOf(table);
  ExecOptions opts;  // columnar on
  auto before = RunPlan(scan, opts);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().size(), 10u);

  // Mutate through rows(): the cached decomposition must be dropped, so the
  // next columnar scan sees the new data.
  table->rows()[0][0] = Value::Int(4242);
  table->rows().push_back(MakeRows(11).back());
  auto after = RunPlan(scan, opts);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().size(), 11u);
  EXPECT_EQ(after.value()[0][0].ToString(), Value::Int(4242).ToString());
}

// ------------------------------ arena pack ----------------------------------

TEST(ArenaTest, AlignmentAndBytesUsed) {
  // Column storage must start on 64-byte boundaries (full cache line, widest
  // SIMD register): every kernel in exec/simd.h may assume vector loads from
  // an arena column's head never straddle a line.
  static_assert(Arena::kAlignment == 64, "SIMD kernels assume 64B columns");
  static_assert((Arena::kAlignment & (Arena::kAlignment - 1)) == 0,
                "alignment must be a power of two");
  Arena arena;
  for (size_t bytes : {size_t{1}, size_t{3}, size_t{17}, size_t{160}}) {
    void* p = arena.Allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Arena::kAlignment, 0u) << bytes;
  }
  EXPECT_GE(arena.bytes_used(), 1u + 3u + 17u + 160u);
  int64_t* col = arena.AllocateArray<int64_t>(100);
  col[0] = 7;
  col[99] = -7;
  EXPECT_EQ(col[0] + col[99], 0);
}

TEST(ArenaTest, ResetCoalescesChunks) {
  Arena arena(/*chunk_bytes=*/128);
  // Spill across several chunks.
  for (int i = 0; i < 10; ++i) arena.Allocate(100);
  EXPECT_GT(arena.chunk_count(), 1u);
  size_t used = arena.bytes_used();
  EXPECT_GE(used, 1000u);
  arena.Reset();
  // Coalesced into one chunk large enough for the whole workload, counters
  // rewound.
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_EQ(arena.bytes_used(), 0u);
  for (int i = 0; i < 10; ++i) arena.Allocate(100);
  EXPECT_EQ(arena.chunk_count(), 1u);
}

TEST(ArenaTest, PoolRecyclesFreedArenas) {
  ArenaPool pool;
  ArenaPtr a = pool.Acquire();
  Arena* raw = a.get();
  a->Allocate(64);
  // Still referenced by the caller: the pool must hand out a fresh arena.
  ArenaPtr b = pool.Acquire();
  EXPECT_NE(b.get(), raw);
  // Released: the next Acquire reuses the arena, reset.
  a.reset();
  ArenaPtr c = pool.Acquire();
  EXPECT_EQ(c.get(), raw);
  EXPECT_EQ(c->bytes_used(), 0u);
}

// -------------------------- column batch pack -------------------------------

class ColumnBatchTest : public ::testing::Test {
 protected:
  TypeFactory tf_;
};

TEST_F(ColumnBatchTest, BuildProducesTypedColumnsWithNullMaps) {
  auto row_type = TestRowType(tf_);
  std::vector<Row> rows = MakeRows(30);
  auto cols = TableColumns::Build(rows, *row_type);
  ASSERT_NE(cols, nullptr);
  ASSERT_EQ(cols->num_rows, 30u);
  ASSERT_EQ(cols->cols.size(), 5u);
  EXPECT_EQ(cols->cols[0].type, PhysType::kInt64);
  EXPECT_EQ(cols->cols[1].type, PhysType::kInt64);
  EXPECT_EQ(cols->cols[2].type, PhysType::kString);
  EXPECT_EQ(cols->cols[3].type, PhysType::kDouble);
  EXPECT_EQ(cols->cols[4].type, PhysType::kBool);
  EXPECT_TRUE(cols->cols[0].nulls.empty());   // NOT NULL column
  EXPECT_FALSE(cols->cols[1].nulls.empty());  // has NULLs
  // Cell-level parity with the source rows, via the column views.
  for (size_t c = 0; c < 5; ++c) {
    ColumnVector view = cols->View(c, 0);
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(view.GetValue(i).ToString(), rows[i][c].ToString())
          << "col " << c << " row " << i;
    }
  }
}

TEST_F(ColumnBatchTest, BuildDegradesMistypedColumnToBoxed) {
  auto row_type = TestRowType(tf_);
  std::vector<Row> rows = MakeRows(5);
  rows[2][0] = Value::String("not an int");  // declared INT
  auto cols = TableColumns::Build(rows, *row_type);
  ASSERT_NE(cols, nullptr);
  EXPECT_EQ(cols->cols[0].type, PhysType::kValue);
  ColumnVector view = cols->View(0, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(view.GetValue(i).ToString(), rows[i][0].ToString());
  }
  // Ragged rows cannot be decomposed at all.
  rows[3].pop_back();
  EXPECT_EQ(TableColumns::Build(rows, *row_type), nullptr);
}

TEST_F(ColumnBatchTest, ScanTableColumnsMatchesRowPredicates) {
  auto row_type = TestRowType(tf_);
  std::vector<Row> rows = MakeRows(2050);
  auto cols = TableColumns::Build(rows, *row_type);
  ASSERT_NE(cols, nullptr);

  ScanPredicateList preds;
  {
    ScanPredicate p;
    p.kind = ScanPredicate::Kind::kLessThan;
    p.column = 0;
    p.literal = Value::Int(1900);
    preds.push_back(p);
    p.kind = ScanPredicate::Kind::kIsNotNull;
    p.column = 1;
    p.literal = Value();
    preds.push_back(p);
    p.kind = ScanPredicate::Kind::kGreaterThanOrEqual;
    p.column = 3;
    p.literal = Value::Double(1.0);
    preds.push_back(p);
  }
  std::vector<Row> want;
  for (const Row& row : rows) {
    if (ScanPredicatesMatch(preds, row)) want.push_back(row);
  }
  ASSERT_FALSE(want.empty());

  for (size_t bs : {size_t{1}, size_t{7}, size_t{1024}}) {
    auto pull = ScanTableColumns(cols, bs, preds, cols);
    std::vector<Row> got;
    for (;;) {
      auto batch = pull();
      ASSERT_TRUE(batch.ok());
      if (batch.value().AtEnd()) break;
      // Never an empty batch mid-stream; physical rows respect the cap.
      ASSERT_GT(batch.value().ActiveCount(), 0u);
      ASSERT_LE(batch.value().num_rows, bs);
      RowBatch boxed;
      ColumnsToRows(batch.value(), &boxed);
      for (Row& row : boxed) got.push_back(std::move(row));
    }
    ASSERT_EQ(got.size(), want.size()) << "bs=" << bs;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(RowToString(got[i]), RowToString(want[i]))
          << "bs=" << bs << " row " << i;
    }
  }
}

TEST_F(ColumnBatchTest, RowColumnRoundTrip) {
  auto row_type = TestRowType(tf_);
  RowBatch rows = MakeRows(97);
  auto cols = RowsToColumns(rows, *row_type);
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  RowBatch back;
  ColumnsToRows(cols.value(), &back);
  ASSERT_EQ(back.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(RowToString(back[i]), RowToString(rows[i])) << "row " << i;
  }
  // With a selection, only the active rows are boxed, in order.
  ColumnBatch selected = cols.value();
  selected.sel = {0, 13, 96};
  selected.has_sel = true;
  RowBatch live;
  ColumnsToRows(selected, &live);
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(RowToString(live[0]), RowToString(rows[0]));
  EXPECT_EQ(RowToString(live[1]), RowToString(rows[13]));
  EXPECT_EQ(RowToString(live[2]), RowToString(rows[96]));
  // GatherRow boxes one physical row.
  EXPECT_EQ(RowToString(cols.value().GatherRow(42)), RowToString(rows[42]));
}

TEST(ExecOptionsTest, NormalizedClampsBothKnobs) {
  ExecOptions opts;
  opts.batch_size = 0;
  opts.num_threads = 0;
  ExecOptions norm = opts.Normalized();
  EXPECT_EQ(norm.batch_size, 1u);
  EXPECT_EQ(norm.num_threads, 1u);

  opts.batch_size = SIZE_MAX;  // config typo must not become a huge alloc
  opts.num_threads = 8;
  norm = opts.Normalized();
  EXPECT_EQ(norm.batch_size, kMaxBatchSize);
  EXPECT_EQ(norm.num_threads, 8u);

  opts.batch_size = kMaxBatchSize;  // boundary passes through untouched
  norm = opts.Normalized();
  EXPECT_EQ(norm.batch_size, kMaxBatchSize);

  opts.batch_size = 777;  // in-range values pass through untouched
  norm = opts.Normalized();
  EXPECT_EQ(norm.batch_size, 777u);
  EXPECT_TRUE(norm.enable_columnar);  // default stays on
}

// ------------------------- SQL-level differential ---------------------------
//
// Whole optimized plans must produce identical result grids with the
// columnar path on and off, serial and 4-way parallel. Every query is
// fully ordered (ORDER BY over a unique prefix, or a single aggregate
// row), so even parallel grids compare byte-identically.

TEST_F(ColumnBatchTest, ScanRangeFusionMatchesRowPredicates) {
  auto row_type = TestRowType(tf_);
  std::vector<Row> rows = MakeRows(2050);
  auto cols = TableColumns::Build(rows, *row_type);
  ASSERT_NE(cols, nullptr);

  // A fusable pair on $0, a fusable double pair on $3 split around an
  // unrelated equality, and a partnerless bound — FuseScanRanges pairs the
  // first two and leaves the rest.
  ScanPredicateList preds;
  {
    ScanPredicate p;
    p.kind = ScanPredicate::Kind::kGreaterThanOrEqual;
    p.column = 0;
    p.literal = Value::Int(100);
    preds.push_back(p);
    p.kind = ScanPredicate::Kind::kLessThan;
    p.column = 0;
    p.literal = Value::Int(1800);
    preds.push_back(p);
    p.kind = ScanPredicate::Kind::kGreaterThan;
    p.column = 3;
    p.literal = Value::Double(0.5);
    preds.push_back(p);
    p.kind = ScanPredicate::Kind::kLessThanOrEqual;
    p.column = 3;
    p.literal = Value::Double(5.0);
    preds.push_back(p);
    p.kind = ScanPredicate::Kind::kGreaterThan;
    p.column = 1;
    p.literal = Value::Int(1);
    preds.push_back(p);
  }
  std::vector<Row> want;
  for (const Row& row : rows) {
    if (ScanPredicatesMatch(preds, row)) want.push_back(row);
  }
  ASSERT_FALSE(want.empty());

  for (size_t bs : {size_t{1}, size_t{7}, size_t{1024}}) {
    auto pull = ScanTableColumns(cols, bs, preds, cols);
    std::vector<Row> got;
    for (;;) {
      auto batch = pull();
      ASSERT_TRUE(batch.ok());
      if (batch.value().AtEnd()) break;
      RowBatch boxed;
      ColumnsToRows(batch.value(), &boxed);
      for (Row& row : boxed) got.push_back(std::move(row));
    }
    ASSERT_EQ(got.size(), want.size()) << "bs=" << bs;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(RowToString(got[i]), RowToString(want[i]))
          << "bs=" << bs << " row " << i;
    }
  }
}

TEST(ColumnarSqlTest, QueriesMatchWithColumnarOnAndOff) {
  const std::vector<std::string> queries = {
      "SELECT * FROM sales ORDER BY saleid",
      "SELECT saleid, units FROM sales WHERE discount IS NOT NULL "
      "ORDER BY saleid",
      "SELECT saleid, units * 2 AS u2 FROM sales WHERE units > 2 "
      "ORDER BY saleid",
      "SELECT products.name, COUNT(*) AS c, SUM(sales.units) AS u "
      "FROM sales JOIN products USING (productId) "
      "GROUP BY products.name ORDER BY c DESC, products.name",
      "SELECT deptno, COUNT(*) AS c FROM emps GROUP BY deptno "
      "ORDER BY deptno",
      "SELECT COUNT(*) AS c, SUM(units) AS s, AVG(discount) AS a FROM sales",
      "SELECT empid FROM emps ORDER BY salary DESC LIMIT 2 OFFSET 1",
  };
  std::vector<std::string> baseline;
  {
    Connection::Config config;
    config.schema = testing::MakeTestSchema();
    config.exec_options.enable_columnar = false;
    Connection conn(std::move(config));
    for (const std::string& sql : queries) {
      auto result = conn.Query(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      baseline.push_back(result.value().ToTable());
    }
  }
  struct Config {
    bool columnar;
    size_t threads;
  };
  for (Config cfg : {Config{true, 1}, Config{true, 4}, Config{false, 4}}) {
    Connection::Config config;
    config.schema = testing::MakeTestSchema();
    config.exec_options.enable_columnar = cfg.columnar;
    config.exec_options.num_threads = cfg.threads;
    Connection conn(std::move(config));
    for (size_t q = 0; q < queries.size(); ++q) {
      auto result = conn.Query(queries[q]);
      ASSERT_TRUE(result.ok())
          << queries[q] << ": " << result.status().ToString();
      EXPECT_EQ(result.value().ToTable(), baseline[q])
          << queries[q] << " columnar=" << cfg.columnar
          << " threads=" << cfg.threads;
    }
  }
}

// The vectorized kernel dispatch (exec/simd.h) must be invisible at the SQL
// level: whole plans produce identical grids with SIMD forced off (scalar
// reference kernels) and on, serial and parallel. In a CALCITE_SIMD=OFF
// build both runs take the scalar path and the test degenerates to a no-op
// sanity pass, which is fine — the CI matrix builds both ways.
TEST(ColumnarSqlTest, QueriesMatchWithSimdOnAndOff) {
  const std::vector<std::string> queries = {
      "SELECT saleid, units FROM sales WHERE units > 2 AND discount < 0.2 "
      "ORDER BY saleid",
      "SELECT saleid, units * 2 + saleid AS u2 FROM sales "
      "WHERE discount IS NOT NULL ORDER BY saleid",
      "SELECT deptno, COUNT(*) AS c, SUM(salary) AS s FROM emps "
      "GROUP BY deptno ORDER BY deptno",
      "SELECT products.name, SUM(sales.units) AS u "
      "FROM sales JOIN products USING (productId) "
      "GROUP BY products.name ORDER BY u DESC, products.name",
  };
  std::vector<std::string> baseline;
  {
    simd::ScopedDispatch scalar(/*enable_simd=*/false);
    Connection::Config config;
    config.schema = testing::MakeTestSchema();
    Connection conn(std::move(config));
    for (const std::string& sql : queries) {
      auto result = conn.Query(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      baseline.push_back(result.value().ToTable());
    }
  }
  struct Config {
    bool simd;
    size_t threads;
  };
  for (Config cfg : {Config{true, 1}, Config{true, 4}, Config{false, 4}}) {
    simd::ScopedDispatch dispatch(cfg.simd);
    Connection::Config config;
    config.schema = testing::MakeTestSchema();
    config.exec_options.num_threads = cfg.threads;
    Connection conn(std::move(config));
    for (size_t q = 0; q < queries.size(); ++q) {
      auto result = conn.Query(queries[q]);
      ASSERT_TRUE(result.ok())
          << queries[q] << ": " << result.status().ToString();
      EXPECT_EQ(result.value().ToTable(), baseline[q])
          << queries[q] << " simd=" << cfg.simd << " threads=" << cfg.threads;
    }
  }
}

// Plans whose expressions exercise the fused evaluator (rex/rex_fuse.h)
// — arithmetic chains, range-pair WHERE clauses that fuse in the scan,
// NULL three-valued logic, literal division, and operators outside the
// fused set that run per row — produce the row reference's grids, serial
// and morsel-parallel.
TEST(ColumnarSqlTest, FusedExpressionQueriesMatchRowReference) {
  const std::vector<std::string> queries = {
      "SELECT saleid, (units + saleid) * 2 AS m FROM sales "
      "WHERE (units + saleid) * 2 > 8 ORDER BY saleid",
      "SELECT saleid FROM sales WHERE saleid >= 2 AND saleid < 5 "
      "ORDER BY saleid",
      "SELECT saleid, units FROM sales "
      "WHERE units > 1 AND discount < 0.3 AND discount IS NOT NULL "
      "ORDER BY saleid",
      "SELECT saleid, units / 2 AS h, units * 1.5 AS w FROM sales "
      "ORDER BY saleid",
      "SELECT empid, salary FROM emps "
      "WHERE salary >= 7000.0 AND salary < 11500.0 ORDER BY empid",
      "SELECT deptno, COUNT(*) AS c, SUM(salary + 1) AS s FROM emps "
      "WHERE empid >= 100 AND empid < 240 GROUP BY deptno ORDER BY deptno",
      "SELECT name FROM products WHERE UPPER(name) LIKE 'P%' ORDER BY name",
  };
  std::vector<std::string> baseline;
  {
    Connection::Config config;
    config.schema = testing::MakeTestSchema();
    config.exec_options.enable_columnar = false;
    Connection conn(std::move(config));
    for (const std::string& sql : queries) {
      auto result = conn.Query(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      baseline.push_back(result.value().ToTable());
    }
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    Connection::Config config;
    config.schema = testing::MakeTestSchema();
    config.exec_options.num_threads = threads;
    Connection conn(std::move(config));
    for (size_t q = 0; q < queries.size(); ++q) {
      auto result = conn.Query(queries[q]);
      ASSERT_TRUE(result.ok())
          << queries[q] << ": " << result.status().ToString();
      EXPECT_EQ(result.value().ToTable(), baseline[q])
          << queries[q] << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace calcite
