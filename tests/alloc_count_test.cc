// Asserts the columnar hot path's central memory claim: pulling a
// scan → filter → project → aggregate pipeline over ~100k rows performs no
// per-row heap allocation. Column storage is either a zero-copy view of the
// table's cached decomposition or bump-allocated from pooled arenas, so the
// allocation count of the whole drain is bounded by the number of batches
// (times a small constant), not the number of rows. The row path over the
// same plan boxes every row and is measured as the contrast.
//
// This test overrides the global operator new, so it must stay its own test
// binary (the per-file test executables guarantee that) and must not run
// under sanitizers, whose allocator interposition the override would fight.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "adapters/enumerable/columnar_agg.h"
#include "adapters/enumerable/enumerable_rels.h"
#include "exec/arena.h"
#include "exec/column_batch.h"
#include "rel/core.h"
#include "rex/rex_builder.h"
#include "rex/rex_fuse.h"
#include "tools/frameworks.h"

namespace {

std::atomic<size_t> g_alloc_count{0};
std::atomic<size_t> g_alloc_bytes{0};
std::atomic<bool> g_counting{false};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace calcite {
namespace {

constexpr size_t kRows = 100000;

/// Drains `puller`, counting heap allocations only inside the pull loop.
/// Returns {output rows, allocations}.
std::pair<size_t, size_t> DrainCounted(const RowBatchPuller& puller) {
  size_t out_rows = 0;
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (;;) {
    auto batch = puller();
    if (!batch.ok() || batch.value().empty()) break;
    out_rows += batch.value().size();
  }
  g_counting.store(false, std::memory_order_relaxed);
  return {out_rows, g_alloc_count.load(std::memory_order_relaxed)};
}

TEST(AllocCountTest, ColumnarHotPathDoesNoPerRowAllocation) {
  TypeFactory tf;
  RexBuilder rex;
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto int_null = tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto dbl_null = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
  auto row_type =
      tf.CreateStructType({"id", "k", "d"}, {int_t, int_null, dbl_null});
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back(
        {Value::Int(static_cast<int64_t>(i)),
         i % 3 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(i % 7)),
         i % 4 == 0 ? Value::Null()
                    : Value::Double(static_cast<double>(i % 13) * 0.5)});
  }
  auto table = std::make_shared<MemTable>(row_type, std::move(rows));
  auto logical =
      LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf);
  RelNodePtr scan = EnumerableTableScan::Create(
      *static_cast<const TableScan*>(logical.get()));

  auto ref = [&](int i) { return rex.MakeInputRef(scan->row_type(), i); };
  auto cond = rex.MakeCall(OpKind::kLessThan,
                           {ref(0), rex.MakeIntLiteral(90000)});
  ASSERT_TRUE(cond.ok());
  RelNodePtr filtered = EnumerableFilter::Create(scan, cond.value());
  auto twice =
      rex.MakeCall(OpKind::kTimes, {ref(0), rex.MakeIntLiteral(2)});
  ASSERT_TRUE(twice.ok());
  std::vector<RexNodePtr> exprs = {ref(1), twice.value(), ref(2)};
  auto proj_type = DeriveProjectRowType(exprs, {"k", "id2", "d"}, tf);
  RelNodePtr projected = EnumerableProject::Create(filtered, exprs, proj_type);
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
  auto agg_type = DeriveAggregateRowType(proj_type, {0}, calls, tf);
  RelNodePtr plan =
      EnumerableAggregate::Create(projected, {0}, calls, agg_type);

  // Columnar pipeline: ExecuteBatched builds the plumbing (and the table's
  // columnar decomposition) eagerly; only the drain is measured.
  ExecOptions opts;
  ASSERT_TRUE(opts.enable_columnar);
  auto columnar = plan->ExecuteBatched(opts);
  ASSERT_TRUE(columnar.ok());
  auto [col_rows, col_allocs] = DrainCounted(columnar.value());
  // 8 groups: k ∈ {NULL, 0..6}.
  EXPECT_EQ(col_rows, 8u);
  // ~88 batches of 1024 rows flow through four operators; a small constant
  // number of allocations per batch (batch bookkeeping, selection vectors —
  // arenas are pooled) is fine, one per *row* (100k) is the bug this test
  // exists to catch.
  EXPECT_LT(col_allocs, 5000u) << "columnar hot path allocates per row";

  // The row path over the same plan boxes every surviving row (90k pass the
  // pushed filter): its allocation count scales with the row count, the
  // contrast that makes the bound above meaningful.
  ExecOptions row_opts;
  row_opts.enable_columnar = false;
  auto row_path = plan->ExecuteBatched(row_opts);
  ASSERT_TRUE(row_path.ok());
  auto [row_rows, row_allocs] = DrainCounted(row_path.value());
  EXPECT_EQ(row_rows, 8u);
  EXPECT_GT(row_allocs, size_t{80000});
  EXPECT_GT(row_allocs, col_allocs * 20);
}

// Group creation in the columnar aggregate is amortized: the accumulator
// array grows geometrically, so feeding N distinct keys allocates O(N)
// bytes in total. Reserving the exact size per new group would reallocate
// (and move) every accumulator on each insert — O(N^2) bytes.
TEST(AllocCountTest, ColumnarAggGroupCreationAllocatesLinearBytes) {
  TypeFactory tf;
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto row_type = tf.CreateStructType({"k", "v"}, {int_t, int_t});
  constexpr size_t kGroups = 20000;
  RowBatch rows;
  rows.reserve(kGroups);
  for (size_t i = 0; i < kGroups; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(i % 5))});
  }
  auto cols = RowsToColumns(rows, *row_type);
  ASSERT_TRUE(cols.ok());
  std::vector<AggregateCall> calls(2);
  calls[0].kind = AggKind::kCountStar;
  calls[0].name = "cnt";
  calls[1].kind = AggKind::kSum;
  calls[1].args = {1};
  calls[1].name = "sum_v";
  ColumnarAggBuilder builder({0}, calls);

  g_alloc_bytes.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  Status status = builder.Feed(cols.value());
  g_counting.store(false, std::memory_order_relaxed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const size_t bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  // Per group: two accumulators (geometric growth at most doubles them),
  // one boxed key, a hash-table node and its slot — a few hundred bytes.
  // The quadratic pattern averages ~kGroups accumulators per group.
  EXPECT_LT(bytes, kGroups * 4096) << "group creation is not amortized";
  auto out = builder.EmitBatch(
      kGroups, *DeriveAggregateRowType(row_type, {0}, calls, tf));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().num_rows, kGroups);
}

// The fused bytecode interpreter's memory claim: evaluating a whole
// expression tree allocates exactly the result column from the output
// arena — every intermediate lives in the interpreter's fixed register
// scratch. Measured directly via Arena::bytes_used.
TEST(AllocCountTest, FusedEvalAddsNoArenaTemporaries) {
  TypeFactory tf;
  RexBuilder rex;
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto int_null = tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto row_type = tf.CreateStructType({"id", "k"}, {int_t, int_null});
  constexpr size_t kN = 2048;  // two fused blocks
  RowBatch rows;
  rows.reserve(kN);
  for (size_t i = 0; i < kN; ++i) {
    rows.push_back(
        {Value::Int(static_cast<int64_t>(i)),
         i % 3 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(i % 7))});
  }
  auto cols = RowsToColumns(rows, *row_type);
  ASSERT_TRUE(cols.ok());
  const ColumnBatch& in = cols.value();

  // ($0 + $1) * 2 + $1 — three operator nodes, one result column.
  auto ref = [&](int i) { return rex.MakeInputRef(row_type, i); };
  auto sum = rex.MakeCall(OpKind::kPlus, {ref(0), ref(1)});
  ASSERT_TRUE(sum.ok());
  auto mul = rex.MakeCall(OpKind::kTimes, {sum.value(), rex.MakeIntLiteral(2)});
  ASSERT_TRUE(mul.ok());
  auto expr = rex.MakeCall(OpKind::kPlus, {mul.value(), ref(1)});
  ASSERT_TRUE(expr.ok());

  ColumnBatch out;
  out.arena = std::make_shared<Arena>();
  out.ShareStorage(in);
  out.num_rows = in.ActiveCount();
  Status status = FusedExpr(expr.value()).AppendEvalColumn(in, &out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out.cols.size(), 1u);
  // Exactly one int64 data buffer plus one null bytemap (64-byte-aligned
  // arena starts): zero per-operator temporaries.
  EXPECT_LE(out.arena->bytes_used(), kN * 8 + kN + 2 * Arena::kAlignment);
}

// String compares fuse like numeric ones: once compiled, a filter on
// `s = 'k3'` narrows a batch without a single allocation, and the
// projection over its survivors allocates exactly its output columns — a
// fused int64 column with its null bytemap and the gathered string spans.
TEST(AllocCountTest, FusedStringFilterAndProjectAllocateOnlyOutputs) {
  TypeFactory tf;
  RexBuilder rex;
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto int_null = tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto str_t = tf.CreateSqlType(SqlTypeName::kVarchar, 8);
  auto row_type =
      tf.CreateStructType({"id", "k", "s"}, {int_t, int_null, str_t});
  constexpr size_t kN = 2048;  // two fused blocks
  RowBatch rows;
  rows.reserve(kN);
  for (size_t i = 0; i < kN; ++i) {
    rows.push_back(
        {Value::Int(static_cast<int64_t>(i)),
         i % 3 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(i % 7)),
         Value::String("k" + std::to_string(i % 5))});
  }
  auto cols = RowsToColumns(rows, *row_type);
  ASSERT_TRUE(cols.ok());
  ColumnBatch in = cols.value();
  SelectionVector all(kN);
  for (size_t i = 0; i < kN; ++i) all[i] = static_cast<uint32_t>(i);

  auto ref = [&](int i) { return rex.MakeInputRef(row_type, i); };
  auto pred = rex.MakeCall(OpKind::kEquals, {ref(2), rex.MakeStringLiteral("k3")});
  ASSERT_TRUE(pred.ok());
  FusedExpr filter(pred.value());
  SelectionVector sel = all;
  ASSERT_TRUE(filter.NarrowSelection(in, &sel).ok());  // compiles
  sel = all;
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  Status status = filter.NarrowSelection(in, &sel);
  g_counting.store(false, std::memory_order_relaxed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u);
  ASSERT_EQ(sel.size(), 409u);  // i % 5 == 3

  in.sel = sel;
  in.has_sel = true;
  auto sum = rex.MakeCall(OpKind::kPlus, {ref(0), ref(1)});
  ASSERT_TRUE(sum.ok());
  auto twice = rex.MakeCall(OpKind::kTimes, {sum.value(), rex.MakeIntLiteral(2)});
  ASSERT_TRUE(twice.ok());
  ColumnBatch out;
  out.arena = std::make_shared<Arena>();
  out.ShareStorage(in);
  out.num_rows = in.ActiveCount();
  for (const RexNodePtr& expr : {twice.value(), ref(2)}) {
    ASSERT_TRUE(FusedExpr(expr).AppendEvalColumn(in, &out).ok());
  }
  ASSERT_EQ(out.cols.size(), 2u);
  const size_t n = in.ActiveCount();
  EXPECT_LE(out.arena->bytes_used(),
            n * 8 + n + n * sizeof(StringRef) + 3 * Arena::kAlignment);
}

// A columnar filter -> project drain stays batch-bounded on the heap too:
// the fused stages reuse their register scratch and compiled programs
// across every batch, so allocations scale with batch count (~98 here),
// never row count.
TEST(AllocCountTest, FusedFilterProjectDrainStaysBatchBounded) {
  TypeFactory tf;
  RexBuilder rex;
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto int_null = tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto row_type = tf.CreateStructType({"id", "k"}, {int_t, int_null});
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back(
        {Value::Int(static_cast<int64_t>(i)),
         i % 3 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(i % 7))});
  }
  auto table = std::make_shared<MemTable>(row_type, std::move(rows));
  auto logical =
      LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf);
  RelNodePtr scan = EnumerableTableScan::Create(
      *static_cast<const TableScan*>(logical.get()));
  auto ref = [&](int i) { return rex.MakeInputRef(scan->row_type(), i); };
  // Range pair (fuses into the leaf scan as one interval test) plus a
  // residual over both columns.
  auto lo = rex.MakeCall(OpKind::kGreaterThanOrEqual,
                         {ref(0), rex.MakeIntLiteral(1000)});
  ASSERT_TRUE(lo.ok());
  auto hi = rex.MakeCall(OpKind::kLessThan,
                         {ref(0), rex.MakeIntLiteral(95000)});
  ASSERT_TRUE(hi.ok());
  auto res = rex.MakeCall(OpKind::kGreaterThan,
                          {rex.MakeCall(OpKind::kPlus, {ref(0), ref(1)})
                               .value(),
                           rex.MakeIntLiteral(1200)});
  ASSERT_TRUE(res.ok());
  RelNodePtr filtered = EnumerableFilter::Create(
      scan, rex.MakeAnd({lo.value(), hi.value(), res.value()}));
  auto twice = rex.MakeCall(
      OpKind::kPlus,
      {rex.MakeCall(OpKind::kTimes, {ref(0), rex.MakeIntLiteral(2)}).value(),
       ref(1)});
  ASSERT_TRUE(twice.ok());
  std::vector<RexNodePtr> exprs = {twice.value(), ref(1)};
  auto proj_type = DeriveProjectRowType(exprs, {"m", "k"}, tf);
  RelNodePtr plan = EnumerableProject::Create(filtered, exprs, proj_type);

  auto puller = plan->TryExecuteColumnar(ExecOptions{});
  ASSERT_TRUE(puller.has_value() && puller->ok());
  size_t out_rows = 0;
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (;;) {
    auto batch = (puller->value())();
    ASSERT_TRUE(batch.ok());
    if (batch.value().AtEnd()) break;
    out_rows += batch.value().ActiveCount();
  }
  g_counting.store(false, std::memory_order_relaxed);
  const size_t allocs = g_alloc_count.load(std::memory_order_relaxed);
  // 94k rows pass the range; the residual drops NULL-k rows (a third).
  EXPECT_GT(out_rows, 60000u);
  // ~98 batches; a handful of allocations per batch is bookkeeping, one per
  // row would be ~94k.
  EXPECT_LT(allocs, 3000u) << "fused drain allocates per row";
}


// The columnar hash join keeps its build batches and gathers output columns
// from (probe, build) pairs: draining an inner join of 100k probe rows
// against a 2000-row build allocates per batch, never per row. The row
// reference boxes every probe row and every joined row — the contrast.
TEST(AllocCountTest, ColumnarHashJoinDrainStaysBatchBounded) {
  TypeFactory tf;
  RexBuilder rex;
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto dbl_t = tf.CreateSqlType(SqlTypeName::kDouble);
  auto row_type = tf.CreateStructType({"id", "k", "x"}, {int_t, int_t, dbl_t});
  auto scan_of = [&](size_t n, size_t modulus) {
    std::vector<Row> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      Value::Int(static_cast<int64_t>(i % modulus)),
                      Value::Double(static_cast<double>(i) * 0.5)});
    }
    auto table = std::make_shared<MemTable>(row_type, std::move(rows));
    auto logical =
        LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf);
    return EnumerableTableScan::Create(
        *static_cast<const TableScan*>(logical.get()));
  };
  RelNodePtr probe = scan_of(kRows, 4000);
  RelNodePtr build = scan_of(2000, 1000);  // keys 0..999, twice each
  RexNodePtr equi = rex.MakeEquals(rex.MakeInputRef(row_type, 1),
                                   rex.MakeInputRef(4, int_t));
  RelNodePtr join = EnumerableHashJoin::Create(
      probe, build, equi, JoinType::kInner,
      DeriveJoinRowType(row_type, row_type, JoinType::kInner, tf));

  ExecOptions opts;
  auto puller = join->TryExecuteColumnar(opts);
  ASSERT_TRUE(puller.has_value() && puller->ok());
  size_t out_rows = 0;
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (;;) {
    auto batch = (puller->value())();
    ASSERT_TRUE(batch.ok());
    if (batch.value().AtEnd()) break;
    out_rows += batch.value().ActiveCount();
  }
  g_counting.store(false, std::memory_order_relaxed);
  const size_t allocs = g_alloc_count.load(std::memory_order_relaxed);
  // A quarter of the probe rows match, twice each.
  EXPECT_EQ(out_rows, kRows / 2);
  // ~98 probe batches and ~50 output batches: a handful of allocations per
  // batch is bookkeeping; one per row would be 100k.
  EXPECT_LT(allocs, 3000u) << "columnar hash join allocates per row";

  ExecOptions row_opts;
  row_opts.enable_columnar = false;
  auto rows = join->ExecuteBatched(row_opts);
  ASSERT_TRUE(rows.ok());
  auto [row_rows, row_allocs] = DrainCounted(rows.value());
  EXPECT_EQ(row_rows, kRows / 2);
  EXPECT_GT(row_allocs, kRows);
}

/// A scan over a MemTable of `n` rows (id INT, x DOUBLE, k INT): id unique,
/// x cycling over 997 values, k constant (one partition).
RelNodePtr ScanOfSortRows(const TypeFactory& tf, size_t n) {
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto dbl_t = tf.CreateSqlType(SqlTypeName::kDouble);
  auto row_type = tf.CreateStructType({"id", "x", "k"}, {int_t, dbl_t, int_t});
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Double(static_cast<double>((i * 7919) % 997)),
                    Value::Int(1)});
  }
  auto table = std::make_shared<MemTable>(row_type, std::move(rows));
  auto logical =
      LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf);
  return EnumerableTableScan::Create(
      *static_cast<const TableScan*>(logical.get()));
}

/// Builds and drains `plan`'s batch pipeline, counting heap allocations over
/// both (blocking operators do their work in either). Returns the rows.
std::vector<Row> RunCounted(const RelNodePtr& plan, const ExecOptions& opts) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_bytes.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  auto puller = plan->ExecuteBatched(opts);
  std::vector<Row> rows;
  if (puller.ok()) {
    auto drained = DrainBatches(puller.value());
    if (drained.ok()) rows = std::move(drained).value();
  }
  g_counting.store(false, std::memory_order_relaxed);
  return rows;
}

// ORDER BY ... LIMIT over a columnar input sorts a permutation of positions
// on a typed key array and boxes only the fetched rows: its allocations
// scale with the fetch and the batch count, not with the input.
TEST(AllocCountTest, TopNBoxesOnlyFetchedRows) {
  constexpr size_t kSortRows = 50000;
  TypeFactory tf;
  RelNodePtr scan = ScanOfSortRows(tf, kSortRows);
  RelNodePtr topn = EnumerableSort::Create(
      scan, RelCollation({{1, Direction::kAscending}}), 0, 10);
  ExecOptions opts;
  ASSERT_TRUE(opts.enable_columnar);
  RunCounted(topn, opts);  // builds the table's columnar decomposition

  std::vector<Row> rows = RunCounted(topn, opts);
  const size_t allocs = g_alloc_count.load(std::memory_order_relaxed);
  ASSERT_EQ(rows.size(), 10u);
  // x == 0 only for multiples of 997; the stable order keeps them by id.
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].AsInt(), static_cast<int64_t>(i * 997));
    EXPECT_EQ(rows[i][1].AsDouble(), 0.0);
  }
  // ~49 batches of 1024 rows: a few allocations per kept batch plus the key
  // and permutation arrays; boxing every input row would be 50k.
  EXPECT_LT(allocs, 1000u) << "TopN allocates per input row";

  ExecOptions row_opts;
  row_opts.enable_columnar = false;
  RunCounted(topn, row_opts);
  EXPECT_GT(g_alloc_count.load(std::memory_order_relaxed), kSortRows);
}

// A full sort (no fetch) hands a columnar consumer ColumnBatches gathered
// from its kept input batches: draining it allocates per batch — kept
// input, key and permutation arrays, one pooled arena and a few vectors
// per output batch — never per row.
TEST(AllocCountTest, FullSortEmitsGatheredBatches) {
  constexpr size_t kSortRows = 50000;
  TypeFactory tf;
  RelNodePtr scan = ScanOfSortRows(tf, kSortRows);
  RelNodePtr sort = EnumerableSort::Create(
      scan, RelCollation({{1, Direction::kAscending}}), 0, -1);
  ExecOptions opts;
  // The first pipeline builds the table's columnar decomposition.
  ASSERT_TRUE(sort->TryExecuteColumnar(opts).has_value());

  auto puller = sort->TryExecuteColumnar(opts);
  ASSERT_TRUE(puller.has_value() && puller->ok());
  size_t out_rows = 0;
  double last = -1.0;
  bool ordered = true;
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (;;) {
    auto batch = (puller->value())();
    ASSERT_TRUE(batch.ok());
    const ColumnBatch& cols = batch.value();
    if (cols.AtEnd()) break;
    ASSERT_EQ(cols.cols[1].type, PhysType::kDouble);
    for (size_t k = 0; k < cols.ActiveCount(); ++k) {
      const double x = cols.cols[1].f64[cols.ActiveIndex(k)];
      ordered = ordered && x >= last;
      last = x;
    }
    out_rows += cols.ActiveCount();
  }
  g_counting.store(false, std::memory_order_relaxed);
  const size_t allocs = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(out_rows, kSortRows);
  EXPECT_TRUE(ordered);
  // ~49 batches in and out: a handful of allocations each; boxing every
  // row would be 50k rows of four allocations.
  EXPECT_LT(allocs, 1000u) << "full sort allocates per row";
}

// A window frame spanning the whole partition (no ORDER BY, default RANGE)
// has the same aggregates for every row, computed once per partition:
// allocated bytes stay linear in the partition size p, where copying the
// frame for each row allocates O(p^2).
TEST(AllocCountTest, WholePartitionWindowAllocatesLinearBytes) {
  constexpr size_t kPartitionRows = 5000;
  TypeFactory tf;
  RelNodePtr scan = ScanOfSortRows(tf, kPartitionRows);
  WindowGroup group;
  group.partition_keys = {2};
  AggregateCall count;
  count.kind = AggKind::kCountStar;
  count.name = "cnt";
  group.agg_calls.push_back(count);
  RelNodePtr window = EnumerableWindow::Create(
      scan, {group}, DeriveWindowRowType(scan->row_type(), {group}, tf));

  std::vector<Row> rows = RunCounted(window, ExecOptions{});
  const size_t bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  ASSERT_EQ(rows.size(), kPartitionRows);
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), 4u);
    EXPECT_EQ(row[3].AsInt(), static_cast<int64_t>(kPartitionRows));
  }
  // The input, its output copy, and the partition index are each a few
  // hundred bytes per row; a frame copy per row is ~p * 100 bytes per row.
  EXPECT_LT(bytes, kPartitionRows * 2048) << "window frame is quadratic";
}

}  // namespace
}  // namespace calcite
