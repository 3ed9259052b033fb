// Differential tests of the batched execution engine: for every physical
// operator of the enumerable convention, the output of the vectorized
// pipeline at several batch sizes must match `batch_size = 1` (the
// row-at-a-time degenerate mode) exactly, across empty inputs, NULL-heavy
// inputs, and cardinalities that straddle the default batch boundary
// (0 / 1 / 1023 / 1024 / 1025).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "adapters/enumerable/enumerable_rels.h"
#include "adapters/spark/spark_adapter.h"
#include "rel/core.h"
#include "rex/rex_builder.h"
#include "rex/rex_interpreter.h"
#include "storage/disk_table.h"
#include "test_schema.h"
#include "tools/frameworks.h"

namespace calcite {
namespace {

const std::vector<size_t> kCardinalities = {0, 1, 2, 1023, 1024, 1025};
const std::vector<size_t> kBatchSizes = {2, 3, 64, 1023, 1024, 4096};

/// Four columns: id INT NOT NULL (unique), k INT? (NULL every 3rd row),
/// s VARCHAR? (NULL every 5th row), d DOUBLE? (NULL every 4th row).
RelDataTypePtr TestRowType(const TypeFactory& tf) {
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto int_null = tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto str_null = tf.CreateSqlType(SqlTypeName::kVarchar, 20, true);
  auto dbl_null = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
  return tf.CreateStructType({"id", "k", "s", "d"},
                             {int_t, int_null, str_null, dbl_null});
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
                    : Value::Double(static_cast<double>(i % 13) * 0.5)});
  }
  return rows;
}

Result<std::vector<Row>> RunBatched(
    const RelNodePtr& node, size_t batch_size,
    AccessPath access_path = AccessPath::kAuto) {
  ExecOptions opts;
  opts.batch_size = batch_size;
  opts.access_path = access_path;
  auto puller = node->ExecuteBatched(opts);
  if (!puller.ok()) return puller.status();
  // Drain by hand so the batching discipline itself is checked: every
  // batch respects the configured cap (joins flush skewed output through a
  // pending buffer), and an empty batch only ever appears as the
  // end-of-stream marker (enforced here by breaking on it — a mid-stream
  // empty batch would truncate the output and fail the row comparison).
  std::vector<Row> out;
  for (;;) {
    auto batch = (puller.value())();
    if (!batch.ok()) return batch.status();
    if (batch.value().empty()) break;
    EXPECT_LE(batch.value().size(), std::max<size_t>(batch_size, 1));
    for (Row& row : batch.value()) out.push_back(std::move(row));
  }
  return out;
}

/// Runs `node` at batch_size = 1 and asserts every other batch size (and
/// the materializing Execute() surface) produces identical rows.
void ExpectParity(const RelNodePtr& node, const std::string& label) {
  auto base = RunBatched(node, 1);
  ASSERT_TRUE(base.ok()) << label << ": " << base.status().ToString();
  for (size_t bs : kBatchSizes) {
    auto got = RunBatched(node, bs);
    ASSERT_TRUE(got.ok()) << label << " bs=" << bs << ": "
                          << got.status().ToString();
    ASSERT_EQ(got.value().size(), base.value().size())
        << label << " bs=" << bs;
    for (size_t i = 0; i < got.value().size(); ++i) {
      ASSERT_EQ(RowToString(got.value()[i]), RowToString(base.value()[i]))
          << label << " bs=" << bs << " row " << i;
    }
  }
  auto exec = node->Execute();
  ASSERT_TRUE(exec.ok()) << label;
  ASSERT_EQ(exec.value().size(), base.value().size()) << label << " Execute()";
  for (size_t i = 0; i < exec.value().size(); ++i) {
    ASSERT_EQ(RowToString(exec.value()[i]), RowToString(base.value()[i]))
        << label << " Execute() row " << i;
  }
}

class BatchParityTest : public ::testing::Test {
 protected:
  RelNodePtr Leaf(size_t n) {
    return EnumerableValues::Create(TestRowType(tf_), MakeRows(n));
  }

  RexNodePtr Field(const RelDataTypePtr& row_type, int i) {
    return rex_.MakeInputRef(row_type, i);
  }

  TypeFactory tf_;
  RexBuilder rex_;
};

TEST_F(BatchParityTest, TableScan) {
  for (size_t n : kCardinalities) {
    auto table = std::make_shared<MemTable>(TestRowType(tf_), MakeRows(n));
    auto logical = LogicalTableScan::Create(table, {"t"},
                                            Convention::Enumerable(), tf_);
    auto scan = EnumerableTableScan::Create(
        *static_cast<const TableScan*>(logical.get()));
    ExpectParity(scan, "TableScan n=" + std::to_string(n));
  }
}

TEST_F(BatchParityTest, Values) {
  for (size_t n : kCardinalities) {
    ExpectParity(Leaf(n), "Values n=" + std::to_string(n));
  }
}

TEST_F(BatchParityTest, FilterFastPathsAndFallback) {
  for (size_t n : kCardinalities) {
    RelNodePtr leaf = Leaf(n);
    const RelDataTypePtr& rt = leaf->row_type();
    // Vectorized fast paths: conjunction of comparison + IS NOT NULL.
    auto cmp = rex_.MakeCall(OpKind::kLessThan,
                             {Field(rt, 0), rex_.MakeIntLiteral(900)});
    ASSERT_TRUE(cmp.ok());
    auto not_null =
        rex_.MakeCall(OpKind::kIsNotNull, {Field(rt, 1)});
    ASSERT_TRUE(not_null.ok());
    RexNodePtr both = rex_.MakeAnd({cmp.value(), not_null.value()});
    ExpectParity(EnumerableFilter::Create(leaf, both),
                 "Filter(and) n=" + std::to_string(n));

    // NULL-producing comparison on a nullable column.
    auto dbl_cmp = rex_.MakeCall(
        OpKind::kGreaterThan, {Field(rt, 3), rex_.MakeDoubleLiteral(2.0)});
    ASSERT_TRUE(dbl_cmp.ok());
    ExpectParity(EnumerableFilter::Create(leaf, dbl_cmp.value()),
                 "Filter(nullable cmp) n=" + std::to_string(n));

    // Scalar fallback: OR over LIKE and IS NULL.
    auto like = rex_.MakeCall(
        OpKind::kLike, {Field(rt, 2), rex_.MakeStringLiteral("s1%")});
    ASSERT_TRUE(like.ok());
    auto is_null = rex_.MakeCall(OpKind::kIsNull, {Field(rt, 2)});
    ASSERT_TRUE(is_null.ok());
    RexNodePtr either = rex_.MakeOr({like.value(), is_null.value()});
    ExpectParity(EnumerableFilter::Create(leaf, either),
                 "Filter(or fallback) n=" + std::to_string(n));

    // A filter that eliminates everything.
    ExpectParity(EnumerableFilter::Create(leaf, rex_.MakeBoolLiteral(false)),
                 "Filter(false) n=" + std::to_string(n));
  }
}

TEST_F(BatchParityTest, Project) {
  for (size_t n : kCardinalities) {
    RelNodePtr leaf = Leaf(n);
    const RelDataTypePtr& rt = leaf->row_type();
    auto sum = rex_.MakeCall(OpKind::kPlus,
                             {Field(rt, 0), rex_.MakeIntLiteral(7)});
    ASSERT_TRUE(sum.ok());
    auto upper = rex_.MakeCall(OpKind::kUpper, {Field(rt, 2)});
    ASSERT_TRUE(upper.ok());
    std::vector<RexNodePtr> exprs = {Field(rt, 0), sum.value(), upper.value(),
                                     rex_.MakeStringLiteral("const"),
                                     Field(rt, 3)};
    auto row_type = DeriveProjectRowType(
        exprs, {"id", "id7", "us", "c", "d"}, tf_);
    ExpectParity(EnumerableProject::Create(leaf, exprs, row_type),
                 "Project n=" + std::to_string(n));
  }
}

TEST_F(BatchParityTest, HashJoinAllTypes) {
  const std::vector<JoinType> join_types = {
      JoinType::kInner, JoinType::kLeft,  JoinType::kRight,
      JoinType::kFull,  JoinType::kSemi,  JoinType::kAnti};
  for (size_t n : {size_t{0}, size_t{1}, size_t{1023}, size_t{1025}}) {
    for (size_t m : {size_t{0}, size_t{37}, size_t{300}}) {
      RelNodePtr left = Leaf(n);
      RelNodePtr right = Leaf(m);
      const RelDataTypePtr& lt = left->row_type();
      const RelDataTypePtr& rt = right->row_type();
      // Equi-key on the NULL-heavy k columns ($1 = $5 in join coordinates)
      // plus a non-equi residual ($0 < $4 + 700).
      size_t left_width = lt->fields().size();
      auto equi = rex_.MakeEquals(
          Field(lt, 1),
          rex_.MakeInputRef(static_cast<int>(left_width) + 1,
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
        auto join = EnumerableHashJoin::Create(left, right, condition, jt,
                                               row_type);
        ExpectParity(join, std::string("HashJoin ") + JoinTypeName(jt) +
                               " n=" + std::to_string(n) +
                               " m=" + std::to_string(m));
      }
    }
  }
}

TEST_F(BatchParityTest, NestedLoopJoin) {
  const std::vector<JoinType> join_types = {
      JoinType::kInner, JoinType::kLeft,  JoinType::kRight,
      JoinType::kFull,  JoinType::kSemi,  JoinType::kAnti};
  for (size_t n : {size_t{0}, size_t{1}, size_t{1025}}) {
    for (size_t m : {size_t{0}, size_t{23}}) {
      RelNodePtr left = Leaf(n);
      RelNodePtr right = Leaf(m);
      const RelDataTypePtr& lt = left->row_type();
      const RelDataTypePtr& rt = right->row_type();
      size_t left_width = lt->fields().size();
      // Pure non-equi condition: left.k > right.k (NULLs never pass).
      auto cond = rex_.MakeCall(
          OpKind::kGreaterThan,
          {Field(lt, 1), rex_.MakeInputRef(static_cast<int>(left_width) + 1,
                                           rt->fields()[1].type)});
      ASSERT_TRUE(cond.ok());
      for (JoinType jt : join_types) {
        auto row_type = DeriveJoinRowType(lt, rt, jt, tf_);
        auto join = EnumerableNestedLoopJoin::Create(left, right, cond.value(),
                                                     jt, row_type);
        ExpectParity(join, std::string("NestedLoopJoin ") + JoinTypeName(jt) +
                               " n=" + std::to_string(n) +
                               " m=" + std::to_string(m));
      }
    }
  }
}

TEST_F(BatchParityTest, AggregateGlobalAndGrouped) {
  for (size_t n : kCardinalities) {
    RelNodePtr leaf = Leaf(n);
    const RelDataTypePtr& rt = leaf->row_type();
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
    // Global aggregate (one output row even over empty input).
    {
      auto row_type = DeriveAggregateRowType(rt, {}, calls, tf_);
      ExpectParity(EnumerableAggregate::Create(leaf, {}, calls, row_type),
                   "Aggregate(global) n=" + std::to_string(n));
    }
    // Grouped by the NULL-heavy k column.
    {
      auto row_type = DeriveAggregateRowType(rt, {1}, calls, tf_);
      ExpectParity(EnumerableAggregate::Create(leaf, {1}, calls, row_type),
                   "Aggregate(k) n=" + std::to_string(n));
    }
    // Grouped by two columns.
    {
      auto row_type = DeriveAggregateRowType(rt, {1, 2}, calls, tf_);
      ExpectParity(EnumerableAggregate::Create(leaf, {1, 2}, calls, row_type),
                   "Aggregate(k,s) n=" + std::to_string(n));
    }
  }
}

// Fragments the morsel-parallel executor declines run on the serial
// operators, so 4 threads reproduce the 1-thread output row for row: Values
// leaves, and every fragment with enable_columnar off (the serial row-major
// reference engine).
TEST_F(BatchParityTest, DeclinedParallelFragmentsMatchSerialExactly) {
  auto run = [](const RelNodePtr& node, size_t threads, bool columnar) {
    ExecOptions opts;
    opts.num_threads = threads;
    opts.enable_columnar = columnar;
    auto puller = node->ExecuteBatched(opts);
    EXPECT_TRUE(puller.ok()) << puller.status().ToString();
    std::vector<std::string> out;
    if (!puller.ok()) return out;
    auto rows = DrainBatches(puller.value());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (rows.ok()) {
      for (const Row& row : rows.value()) out.push_back(RowToString(row));
    }
    return out;
  };
  for (size_t n : {size_t{0}, size_t{1}, size_t{1025}}) {
    RelNodePtr values = Leaf(n);
    auto table = std::make_shared<MemTable>(TestRowType(tf_), MakeRows(n));
    auto logical = LogicalTableScan::Create(table, {"t"},
                                            Convention::Enumerable(), tf_);
    RelNodePtr scan = EnumerableTableScan::Create(
        *static_cast<const TableScan*>(logical.get()));
    for (const RelNodePtr& leaf : {values, scan}) {
      const RelDataTypePtr& rt = leaf->row_type();
      auto cond = rex_.MakeCall(OpKind::kLessThan,
                                {Field(rt, 0), rex_.MakeIntLiteral(900)});
      ASSERT_TRUE(cond.ok());
      RelNodePtr filter = EnumerableFilter::Create(leaf, cond.value());
      AggregateCall count;
      count.kind = AggKind::kCountStar;
      count.name = "cnt";
      RelNodePtr agg = EnumerableAggregate::Create(
          filter, {1, 2}, {count},
          DeriveAggregateRowType(rt, {1, 2}, {count}, tf_));
      const int width = static_cast<int>(rt->fields().size());
      auto equi = rex_.MakeEquals(
          Field(rt, 1), rex_.MakeInputRef(width + 1, rt->fields()[1].type));
      RelNodePtr join = EnumerableHashJoin::Create(
          filter, leaf, equi, JoinType::kLeft,
          DeriveJoinRowType(rt, rt, JoinType::kLeft, tf_));
      const bool is_values = leaf == values;
      for (const RelNodePtr& plan : {leaf, filter, agg, join}) {
        const std::string label = plan->op_name() + " n=" + std::to_string(n) +
                                  (is_values ? " values" : " table");
        if (is_values) {
          EXPECT_EQ(run(plan, 4, true), run(plan, 1, true)) << label;
        }
        EXPECT_EQ(run(plan, 4, false), run(plan, 1, false))
            << label << " columnar=false";
      }
    }
  }
}

TEST_F(BatchParityTest, SortOffsetFetch) {
  for (size_t n : kCardinalities) {
    RelNodePtr leaf = Leaf(n);
    RelCollation by_k_desc_id(
        {{1, Direction::kDescending}, {0, Direction::kAscending}});
    ExpectParity(EnumerableSort::Create(leaf, by_k_desc_id, 0, -1),
                 "Sort n=" + std::to_string(n));
    ExpectParity(EnumerableSort::Create(leaf, by_k_desc_id, 5, 100),
                 "Sort offset/fetch n=" + std::to_string(n));
    ExpectParity(EnumerableSort::Create(leaf, RelCollation(), 3, 1100),
                 "Limit-only n=" + std::to_string(n));
  }
}

TEST_F(BatchParityTest, SetOps) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{1024}, size_t{1025}}) {
    // Overlapping inputs: [0, n) and [n/2, n/2 + n) modulo the row pattern
    // repeating every 3*4*5*7*11 rows, so duplicates exist across inputs.
    std::vector<Row> a = MakeRows(n);
    std::vector<Row> b = MakeRows(n == 0 ? 0 : n / 2 + 1);
    auto row_type = TestRowType(tf_);
    RelNodePtr left = EnumerableValues::Create(row_type, a);
    RelNodePtr right = EnumerableValues::Create(row_type, b);
    for (auto kind : {SetOp::Kind::kUnion, SetOp::Kind::kIntersect,
                      SetOp::Kind::kMinus}) {
      for (bool all : {true, false}) {
        auto setop = EnumerableSetOp::Create({left, right}, kind, all,
                                             row_type);
        ExpectParity(setop, "SetOp kind=" + std::to_string(static_cast<int>(
                                kind)) +
                                " all=" + std::to_string(all) +
                                " n=" + std::to_string(n));
      }
    }
    // Three-input union.
    auto u3 = EnumerableSetOp::Create({left, right, left},
                                      SetOp::Kind::kUnion, true, row_type);
    ExpectParity(u3, "Union3 n=" + std::to_string(n));
  }
}

TEST_F(BatchParityTest, Window) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{200}, size_t{1025}}) {
    RelNodePtr leaf = Leaf(n);
    const RelDataTypePtr& rt = leaf->row_type();
    WindowGroup group;
    group.partition_keys = {1};
    group.order = RelCollation::Of({0});
    group.is_rows = true;
    group.preceding = 2;
    group.following = 0;
    {
      AggregateCall c;
      c.kind = AggKind::kSum;
      c.args = {0};
      c.name = "running";
      group.agg_calls.push_back(c);
    }
    auto row_type = DeriveWindowRowType(rt, {group}, tf_);
    ExpectParity(EnumerableWindow::Create(leaf, {group}, row_type),
                 "Window n=" + std::to_string(n));
  }
}

/// A MemTable that records the ScanSpec of every OpenScan call.
class RecordingTable : public MemTable {
 public:
  using MemTable::MemTable;

  Result<RowBatchPuller> OpenScan(const ScanSpec& spec) const override {
    specs.push_back(spec);
    return MemTable::OpenScan(spec);
  }

  mutable std::vector<ScanSpec> specs;
};

TEST_F(BatchParityTest, WindowInputRunsUnderQueryOptions) {
  // The window drains its input through ExecuteBatched(opts), so the scan
  // below it opens with the query's batch size and access path instead of
  // the defaults.
  auto table = std::make_shared<RecordingTable>(TestRowType(tf_),
                                                MakeRows(50));
  auto logical =
      LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf_);
  RelNodePtr scan = EnumerableTableScan::Create(
      *static_cast<const TableScan*>(logical.get()));
  WindowGroup group;
  group.partition_keys = {1};
  {
    AggregateCall c;
    c.kind = AggKind::kCountStar;
    c.name = "cnt";
    group.agg_calls.push_back(c);
  }
  RelNodePtr window = EnumerableWindow::Create(
      scan, {group}, DeriveWindowRowType(scan->row_type(), {group}, tf_));
  ExecOptions opts;
  opts.batch_size = 7;
  opts.access_path = AccessPath::kForceHeap;
  auto puller = window->ExecuteBatched(opts);
  ASSERT_TRUE(puller.ok()) << puller.status().ToString();
  auto rows = DrainBatches(puller.value());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().size(), 50u);
  ASSERT_EQ(table->specs.size(), 1u);
  EXPECT_EQ(table->specs[0].batch_size, 7u);
  EXPECT_EQ(table->specs[0].access_path, AccessPath::kForceHeap);
}

TEST_F(BatchParityTest, ForeignNodesRunInputsUnderQueryOptions) {
  // Foreign-convention nodes read their enumerable inputs under the query's
  // options: a Spark transfer over a scan, and a Spark join over two such
  // transfers, each open their scans exactly once with the query's batch
  // size and access path, and return the enumerable plan's rows.
  ExecOptions opts;
  opts.batch_size = 7;
  opts.access_path = AccessPath::kForceHeap;
  auto scan_of = [this](TablePtr table) {
    auto logical = LogicalTableScan::Create(std::move(table), {"t"},
                                            Convention::Enumerable(), tf_);
    return EnumerableTableScan::Create(
        *static_cast<const TableScan*>(logical.get()));
  };
  auto run = [&opts](const RelNodePtr& node) {
    auto puller = node->ExecuteBatched(opts);
    EXPECT_TRUE(puller.ok()) << puller.status().ToString();
    std::vector<std::string> out;
    if (!puller.ok()) return out;
    auto rows = DrainBatches(puller.value());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (rows.ok()) {
      for (const Row& row : rows.value()) out.push_back(RowToString(row));
    }
    return out;
  };
  auto expect_one_scan = [&opts](const RecordingTable& table,
                                 const std::string& label) {
    ASSERT_EQ(table.specs.size(), 1u) << label;
    EXPECT_EQ(table.specs[0].batch_size, opts.batch_size) << label;
    EXPECT_EQ(table.specs[0].access_path, opts.access_path) << label;
  };
  auto row_type = TestRowType(tf_);

  auto table = std::make_shared<RecordingTable>(row_type, MakeRows(50));
  std::vector<std::string> transferred =
      run(SparkDataTransfer::Create(scan_of(table)));
  expect_one_scan(*table, "transfer");
  EXPECT_EQ(transferred,
            run(scan_of(std::make_shared<MemTable>(row_type, MakeRows(50)))));

  auto left = std::make_shared<RecordingTable>(row_type, MakeRows(40));
  auto right = std::make_shared<RecordingTable>(row_type, MakeRows(30));
  // Equi-key on the k columns: $1 = $5 in join coordinates.
  auto condition = rex_.MakeEquals(
      Field(row_type, 1),
      rex_.MakeInputRef(static_cast<int>(row_type->fields().size()) + 1,
                        row_type->fields()[1].type));
  auto join_type =
      DeriveJoinRowType(row_type, row_type, JoinType::kInner, tf_);
  std::vector<std::string> joined = run(SparkHashJoin::Create(
      SparkDataTransfer::Create(scan_of(left)),
      SparkDataTransfer::Create(scan_of(right)), condition, JoinType::kInner,
      join_type));
  expect_one_scan(*left, "join left");
  expect_one_scan(*right, "join right");
  std::vector<std::string> expected = run(EnumerableHashJoin::Create(
      scan_of(std::make_shared<MemTable>(row_type, MakeRows(40))),
      scan_of(std::make_shared<MemTable>(row_type, MakeRows(30))), condition,
      JoinType::kInner, join_type));
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(joined, expected);
}

TEST_F(BatchParityTest, Interpreter) {
  for (size_t n : kCardinalities) {
    ExpectParity(EnumerableInterpreter::Create(Leaf(n)),
                 "Interpreter n=" + std::to_string(n));
  }
}

// --------------------- selection-pushdown parity ----------------------------
//
// The selection-aware pipeline (filters narrow a SelectionVector, leaf
// scans evaluate pushed predicates before materializing rows) must be
// byte-identical to the compacting path. Each case is checked two ways:
// ExpectParity sweeps batch sizes against the row-at-a-time degenerate
// mode, and an explicit per-row EvalPredicate oracle reproduces what the
// old compact-after-every-filter pipeline produced.

/// Rows of `rows` passing all `conditions` under the per-row interpreter —
/// the compacting pipeline's semantics, computed independently of the
/// batch engine.
std::vector<Row> RowAtATimeFilter(const std::vector<Row>& rows,
                                  const std::vector<RexNodePtr>& conditions) {
  std::vector<Row> out;
  for (const Row& row : rows) {
    bool pass = true;
    for (const RexNodePtr& cond : conditions) {
      auto got = RexInterpreter::EvalPredicate(cond, row);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      if (!got.ok() || !got.value()) {
        pass = false;
        break;
      }
    }
    if (pass) out.push_back(row);
  }
  return out;
}

void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(RowToString(got[i]), RowToString(want[i]))
        << label << " row " << i;
  }
}

TEST_F(BatchParityTest, StackedFiltersSelectionParity) {
  for (size_t n : kCardinalities) {
    RelNodePtr leaf = Leaf(n);
    const RelDataTypePtr& rt = leaf->row_type();
    // Three stacked filters: a fused comparison, a NULL test, and a
    // fallback OR — the selection narrows through all three without an
    // intermediate compaction.
    auto c1 = rex_.MakeCall(OpKind::kLessThan,
                            {Field(rt, 0), rex_.MakeIntLiteral(900)});
    ASSERT_TRUE(c1.ok());
    auto c2 = rex_.MakeCall(OpKind::kIsNotNull, {Field(rt, 1)});
    ASSERT_TRUE(c2.ok());
    auto like = rex_.MakeCall(
        OpKind::kLike, {Field(rt, 2), rex_.MakeStringLiteral("s1%")});
    ASSERT_TRUE(like.ok());
    auto dgt = rex_.MakeCall(OpKind::kGreaterThan,
                             {Field(rt, 3), rex_.MakeDoubleLiteral(1.0)});
    ASSERT_TRUE(dgt.ok());
    RexNodePtr c3 = rex_.MakeOr({like.value(), dgt.value()});

    RelNodePtr stacked = EnumerableFilter::Create(
        EnumerableFilter::Create(
            EnumerableFilter::Create(leaf, c1.value()), c2.value()),
        c3);
    ExpectParity(stacked, "StackedFilters n=" + std::to_string(n));

    // Independent row-at-a-time oracle (the compacting path's output).
    auto got = RunBatched(stacked, 1024);
    ASSERT_TRUE(got.ok());
    ExpectSameRows(got.value(),
                   RowAtATimeFilter(MakeRows(n), {c1.value(), c2.value(), c3}),
                   "StackedFilters oracle n=" + std::to_string(n));
  }
}

TEST_F(BatchParityTest, FilterUnderJoinSelectionParity) {
  // Both join inputs sit under filters, so the probe side consumes a
  // selection-carrying stream; every join type must stay byte-identical.
  const std::vector<JoinType> join_types = {
      JoinType::kInner, JoinType::kLeft,  JoinType::kRight,
      JoinType::kFull,  JoinType::kSemi,  JoinType::kAnti};
  for (size_t n : {size_t{0}, size_t{1}, size_t{1023}, size_t{1025}}) {
    RelNodePtr left_leaf = Leaf(n);
    RelNodePtr right_leaf = Leaf(97);
    const RelDataTypePtr& lt = left_leaf->row_type();
    const RelDataTypePtr& rt = right_leaf->row_type();
    auto lcond = rex_.MakeCall(OpKind::kGreaterThanOrEqual,
                               {Field(lt, 0), rex_.MakeIntLiteral(3)});
    ASSERT_TRUE(lcond.ok());
    auto rcond = rex_.MakeCall(OpKind::kIsNotNull, {Field(rt, 1)});
    ASSERT_TRUE(rcond.ok());
    RelNodePtr left = EnumerableFilter::Create(left_leaf, lcond.value());
    RelNodePtr right = EnumerableFilter::Create(right_leaf, rcond.value());
    size_t left_width = lt->fields().size();
    auto equi = rex_.MakeEquals(
        Field(lt, 1), rex_.MakeInputRef(static_cast<int>(left_width) + 1,
                                        rt->fields()[1].type));
    for (JoinType jt : join_types) {
      auto row_type = DeriveJoinRowType(lt, rt, jt, tf_);
      ExpectParity(EnumerableHashJoin::Create(left, right, equi, jt, row_type),
                   std::string("FilterUnderHashJoin ") + JoinTypeName(jt) +
                       " n=" + std::to_string(n));
    }
    // Nested loop probe over a filtered input.
    auto nl_cond = rex_.MakeCall(
        OpKind::kGreaterThan,
        {Field(lt, 1), rex_.MakeInputRef(static_cast<int>(left_width) + 1,
                                         rt->fields()[1].type)});
    ASSERT_TRUE(nl_cond.ok());
    auto nl_type = DeriveJoinRowType(lt, rt, JoinType::kInner, tf_);
    ExpectParity(EnumerableNestedLoopJoin::Create(left, right, nl_cond.value(),
                                                  JoinType::kInner, nl_type),
                 "FilterUnderNestedLoop n=" + std::to_string(n));
  }
}

TEST_F(BatchParityTest, FilterUnderAggregateSelectionParity) {
  for (size_t n : kCardinalities) {
    RelNodePtr leaf = Leaf(n);
    const RelDataTypePtr& rt = leaf->row_type();
    auto cond = rex_.MakeCall(OpKind::kLessThan,
                              {Field(rt, 0), rex_.MakeIntLiteral(777)});
    ASSERT_TRUE(cond.ok());
    RelNodePtr filtered = EnumerableFilter::Create(leaf, cond.value());
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
      c.kind = AggKind::kCount;
      c.args = {1};
      c.distinct = true;
      c.name = "cntd_k";
      calls.push_back(c);
    }
    // Global: COUNT(*) must count only the selected rows.
    {
      auto row_type = DeriveAggregateRowType(rt, {}, calls, tf_);
      ExpectParity(EnumerableAggregate::Create(filtered, {}, calls, row_type),
                   "FilterUnderAggregate(global) n=" + std::to_string(n));
    }
    // Grouped by the NULL-heavy column.
    {
      auto row_type = DeriveAggregateRowType(rt, {1}, calls, tf_);
      ExpectParity(
          EnumerableAggregate::Create(filtered, {1}, calls, row_type),
          "FilterUnderAggregate(k) n=" + std::to_string(n));
    }
  }
}

TEST_F(BatchParityTest, ScanPredicatePushdownParity) {
  // The same filter over (a) a MemTable scan — predicates pushed into the
  // leaf, rows filtered before materialization — (b) a storage-less table
  // using the default post-scan filtering, and (c) a Values leaf — no
  // pushdown, selection narrowing only — must produce byte-identical rows.
  for (size_t n : kCardinalities) {
    std::vector<Row> rows = MakeRows(n);
    auto row_type = TestRowType(tf_);

    // Mixed condition: two pushable conjuncts ($0 < 900, $1 IS NOT NULL,
    // and the mirrored literal-first 700 > $0) plus a fallback residual.
    auto c1 = rex_.MakeCall(OpKind::kLessThan,
                            {Field(row_type, 0), rex_.MakeIntLiteral(900)});
    ASSERT_TRUE(c1.ok());
    auto c2 = rex_.MakeCall(OpKind::kIsNotNull, {Field(row_type, 1)});
    ASSERT_TRUE(c2.ok());
    auto c3 = rex_.MakeCall(OpKind::kGreaterThan,
                            {rex_.MakeIntLiteral(700), Field(row_type, 0)});
    ASSERT_TRUE(c3.ok());
    auto like = rex_.MakeCall(
        OpKind::kLike, {Field(row_type, 2), rex_.MakeStringLiteral("s%")});
    ASSERT_TRUE(like.ok());
    const std::vector<RexNodePtr> conditions = {
        rex_.MakeAnd({c1.value(), c2.value(), c3.value(), like.value()}),
        rex_.MakeAnd({c1.value(), c2.value()}),  // fully pushable
        like.value(),                            // nothing pushable
    };

    for (size_t ci = 0; ci < conditions.size(); ++ci) {
      const RexNodePtr& cond = conditions[ci];
      auto make_scan_plan = [&](TablePtr table) {
        auto logical = LogicalTableScan::Create(table, {"t"},
                                                Convention::Enumerable(), tf_);
        auto scan = EnumerableTableScan::Create(
            *static_cast<const TableScan*>(logical.get()));
        return EnumerableFilter::Create(scan, cond);
      };
      RelNodePtr pushdown =
          make_scan_plan(std::make_shared<MemTable>(row_type, rows));
      RelNodePtr post_filter =
          make_scan_plan(std::make_shared<testing::ScanOnlyTable>(row_type, rows));
      RelNodePtr values_plan = EnumerableFilter::Create(
          EnumerableValues::Create(row_type, rows), cond);

      std::string label = "ScanPushdown n=" + std::to_string(n) +
                          " cond=" + std::to_string(ci);
      ExpectParity(pushdown, label);
      std::vector<Row> oracle = RowAtATimeFilter(rows, {cond});
      for (size_t bs : {size_t{1}, size_t{3}, size_t{1024}}) {
        auto a = RunBatched(pushdown, bs);
        ASSERT_TRUE(a.ok()) << label;
        auto b = RunBatched(post_filter, bs);
        ASSERT_TRUE(b.ok()) << label;
        auto c = RunBatched(values_plan, bs);
        ASSERT_TRUE(c.ok()) << label;
        ExpectSameRows(a.value(), oracle, label + " pushdown bs=" +
                                              std::to_string(bs));
        ExpectSameRows(b.value(), oracle, label + " post-filter bs=" +
                                              std::to_string(bs));
        ExpectSameRows(c.value(), oracle, label + " values bs=" +
                                              std::to_string(bs));
      }
    }
  }
}

TEST_F(BatchParityTest, DiskTablePushdownParity) {
  // The same filtered scans over an out-of-core DiskTable whose buffer pool
  // is far smaller than the table: the B-tree index route (primary-key
  // conjuncts), the forced-off heap route, a MemTable, and the per-row
  // interpreter oracle must all agree — and the 4-way paged morsel-parallel
  // execution must produce the same multiset.
  char tmpl[] = "/tmp/calcite_disk_parity_XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string dir_path = dir;

  for (size_t n : {size_t{0}, size_t{1}, size_t{1025}, size_t{4000}}) {
    std::vector<Row> rows = MakeRows(n);
    auto row_type = TestRowType(tf_);

    storage::DiskTableOptions dt_opts;
    dt_opts.pool_pages = 8;  // the 4000-row heap spans ~10x more pages
    auto disk_table = storage::DiskTable::Create(
        dir_path + "/t" + std::to_string(n) + ".db", row_type, 0, dt_opts);
    ASSERT_TRUE(disk_table.ok()) << disk_table.status().ToString();
    ASSERT_TRUE((*disk_table)->InsertRows(rows).ok());

    // A primary-key range plus a residual (index route with re-check), a
    // pure key range (index route alone), and a residual-only condition
    // (no key bound — heap route even with the index enabled).
    auto lo = rex_.MakeCall(OpKind::kGreaterThanOrEqual,
                            {Field(row_type, 0), rex_.MakeIntLiteral(100)});
    ASSERT_TRUE(lo.ok());
    auto hi = rex_.MakeCall(OpKind::kLessThan,
                            {Field(row_type, 0), rex_.MakeIntLiteral(900)});
    ASSERT_TRUE(hi.ok());
    auto residual = rex_.MakeCall(OpKind::kIsNotNull, {Field(row_type, 1)});
    ASSERT_TRUE(residual.ok());
    const std::vector<RexNodePtr> conditions = {
        rex_.MakeAnd({lo.value(), hi.value(), residual.value()}),
        rex_.MakeAnd({lo.value(), hi.value()}),
        residual.value(),
    };

    for (size_t ci = 0; ci < conditions.size(); ++ci) {
      const RexNodePtr& cond = conditions[ci];
      auto make_plan = [&](TablePtr table) {
        auto logical = LogicalTableScan::Create(table, {"t"},
                                                Convention::Enumerable(), tf_);
        auto scan = EnumerableTableScan::Create(
            *static_cast<const TableScan*>(logical.get()));
        return EnumerableFilter::Create(scan, cond);
      };
      RelNodePtr disk_plan = make_plan(*disk_table);
      RelNodePtr mem_plan =
          make_plan(std::make_shared<MemTable>(row_type, rows));
      std::vector<Row> oracle = RowAtATimeFilter(rows, {cond});
      std::string label = "DiskPushdown n=" + std::to_string(n) +
                          " cond=" + std::to_string(ci);

      // Unanalyzed, kAuto takes the index whenever a key range derives.
      ExpectParity(disk_plan, label + " (index on)");
      for (size_t bs : {size_t{1}, size_t{3}, size_t{1024}}) {
        auto via_index = RunBatched(disk_plan, bs, AccessPath::kForceIndex);
        ASSERT_TRUE(via_index.ok()) << label;
        auto via_heap = RunBatched(disk_plan, bs, AccessPath::kForceHeap);
        ASSERT_TRUE(via_heap.ok()) << label;
        auto via_mem = RunBatched(mem_plan, bs);
        ASSERT_TRUE(via_mem.ok()) << label;
        ExpectSameRows(via_index.value(), oracle,
                       label + " index bs=" + std::to_string(bs));
        ExpectSameRows(via_heap.value(), oracle,
                       label + " heap bs=" + std::to_string(bs));
        ExpectSameRows(via_mem.value(), oracle,
                       label + " mem bs=" + std::to_string(bs));
      }

      // 4-way parallel: workers claim page runs as morsels; order within
      // the fragment is unspecified, so compare as sorted multisets.
      ExecOptions par_opts;
      par_opts.num_threads = 4;
      auto par_puller = disk_plan->ExecuteBatched(par_opts);
      ASSERT_TRUE(par_puller.ok()) << label << ": "
                                   << par_puller.status().ToString();
      std::vector<Row> par_rows;
      for (;;) {
        auto batch = (par_puller.value())();
        ASSERT_TRUE(batch.ok()) << label << ": " << batch.status().ToString();
        if (batch.value().empty()) break;
        for (Row& row : batch.value()) par_rows.push_back(std::move(row));
      }
      std::vector<std::string> got_sorted, want_sorted;
      for (const Row& row : par_rows) got_sorted.push_back(RowToString(row));
      for (const Row& row : oracle) want_sorted.push_back(RowToString(row));
      std::sort(got_sorted.begin(), got_sorted.end());
      std::sort(want_sorted.begin(), want_sorted.end());
      ASSERT_EQ(got_sorted, want_sorted) << label << " threads=4";
      EXPECT_EQ((*disk_table)->buffer_pool().pinned_frames(), 0u) << label;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir_path, ec);
}

TEST_F(BatchParityTest, ExtractScanPredicatesSplitsConjunction) {
  auto row_type = TestRowType(tf_);
  auto c1 = rex_.MakeCall(OpKind::kLessThan,
                          {Field(row_type, 0), rex_.MakeIntLiteral(10)});
  ASSERT_TRUE(c1.ok());
  auto c2 = rex_.MakeCall(OpKind::kGreaterThanOrEqual,
                          {rex_.MakeDoubleLiteral(0.5), Field(row_type, 3)});
  ASSERT_TRUE(c2.ok());
  auto c3 = rex_.MakeCall(OpKind::kIsNull, {Field(row_type, 1)});
  ASSERT_TRUE(c3.ok());
  auto like = rex_.MakeCall(
      OpKind::kLike, {Field(row_type, 2), rex_.MakeStringLiteral("s%")});
  ASSERT_TRUE(like.ok());
  // Nested AND: ((c1 AND c2) AND (c3 AND like)).
  RexNodePtr cond = rex_.MakeAnd(
      {rex_.MakeAnd({c1.value(), c2.value()}),
       rex_.MakeAnd({c3.value(), like.value()})});
  ScanPredicateList pushed;
  std::vector<RexNodePtr> residual;
  ASSERT_TRUE(ExtractScanPredicates(cond, 4, &pushed, &residual));
  ASSERT_EQ(pushed.size(), 3u);
  EXPECT_EQ(pushed[0].kind, ScanPredicate::Kind::kLessThan);
  EXPECT_EQ(pushed[0].column, 0);
  // `0.5 >= $3` must arrive mirrored as `$3 <= 0.5`.
  EXPECT_EQ(pushed[1].kind, ScanPredicate::Kind::kLessThanOrEqual);
  EXPECT_EQ(pushed[1].column, 3);
  EXPECT_EQ(pushed[2].kind, ScanPredicate::Kind::kIsNull);
  EXPECT_EQ(pushed[2].column, 1);
  ASSERT_EQ(residual.size(), 1u);
  EXPECT_EQ(residual[0]->ToString(), like.value()->ToString());

  // A ref-vs-ref comparison or an out-of-range column is not pushable.
  auto refs = rex_.MakeCall(OpKind::kEquals,
                            {Field(row_type, 0), Field(row_type, 1)});
  ASSERT_TRUE(refs.ok());
  pushed.clear();
  residual.clear();
  EXPECT_FALSE(ExtractScanPredicates(refs.value(), 4, &pushed, &residual));
  EXPECT_TRUE(pushed.empty());
  ASSERT_EQ(residual.size(), 1u);
  pushed.clear();
  residual.clear();
  EXPECT_FALSE(ExtractScanPredicates(c1.value(), /*scan_width=*/0, &pushed,
                                     &residual));
  ASSERT_EQ(residual.size(), 1u);
}

// ------------------------- SQL-level differential --------------------------
//
// Whole optimized plans must produce byte-identical result grids whatever
// the configured batch size.

TEST(BatchParitySqlTest, QueriesMatchAcrossBatchSizes) {
  const std::vector<std::string> queries = {
      "SELECT * FROM sales",
      "SELECT saleid, units FROM sales WHERE discount IS NOT NULL",
      "SELECT products.name, COUNT(*) AS c, SUM(sales.units) AS u "
      "FROM sales JOIN products USING (productId) "
      "GROUP BY products.name ORDER BY c DESC, products.name",
      "SELECT deptno, COUNT(*) AS c FROM emps GROUP BY deptno "
      "ORDER BY deptno",
      "SELECT name FROM emps WHERE salary > 8000 "
      "UNION SELECT dept_name FROM depts",
      "SELECT empid FROM emps ORDER BY salary DESC LIMIT 2 OFFSET 1",
      "SELECT COUNT(*) AS c, SUM(units) AS s FROM sales",
  };
  std::vector<std::string> baseline;
  {
    Connection::Config config;
    config.schema = testing::MakeTestSchema();
    config.exec_options.batch_size = 1;
    Connection conn(std::move(config));
    for (const std::string& sql : queries) {
      auto result = conn.Query(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      baseline.push_back(result.value().ToTable());
    }
  }
  for (size_t bs : {size_t{2}, size_t{3}, size_t{1024}}) {
    Connection::Config config;
    config.schema = testing::MakeTestSchema();
    config.exec_options.batch_size = bs;
    Connection conn(std::move(config));
    for (size_t q = 0; q < queries.size(); ++q) {
      auto result = conn.Query(queries[q]);
      ASSERT_TRUE(result.ok())
          << queries[q] << ": " << result.status().ToString();
      EXPECT_EQ(result.value().ToTable(), baseline[q])
          << queries[q] << " bs=" << bs;
    }
  }
}

}  // namespace
}  // namespace calcite
