// Per-kernel microbenchmarks for the columnar hot-path loops: comparison
// and arithmetic expressions (FusedExpr::AppendEvalColumn), leaf predicate
// narrowing (NarrowByScanPredicate), selection refill after a fused
// predicate evaluation (FusedExpr::NarrowSelection), and group-id
// resolution in the columnar hash aggregate (ColumnarAggBuilder::Feed).
//
// Each benchmark drives exactly one kernel over a pre-built zero-copy
// column slice, so the timings isolate the loop the SIMD work targets.
// BM_FusedExprSweep runs multi-node expressions through FusedExpr at the
// interpreter's block size and at the full slice.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "adapters/enumerable/columnar_agg.h"
#include "exec/arena.h"
#include "exec/column_batch.h"
#include "rex/rex_builder.h"
#include "rex/rex_fuse.h"
#include "type/rel_data_type.h"
#include "type/value.h"

namespace calcite {
namespace {

constexpr size_t kRows = 65536;
constexpr int kNullPct = 12;
constexpr int64_t kIntRange = 1000;  // ints uniform in [0, kIntRange)

// Column layout of the bench table:
//   $0 id INT NOT NULL   (row index)
//   $1 a  INT?           (~12% NULL, uniform [0, 1000))
//   $2 b  INT?           (~12% NULL, uniform [0, 1000))
//   $3 x  DOUBLE?        (~12% NULL, uniform [0.0, 1000.0))
//   $4 g  INT NOT NULL   (group key, 64 distinct values)
//   $5 gd DOUBLE NOT NULL (group key, 64 distinct values)
//   $6 gs VARCHAR NOT NULL (group key, 64 distinct values)
struct BenchTable {
  TypeFactory tf;
  RelDataTypePtr row_type;
  std::vector<Row> rows;
  TableColumnsPtr columns;
  ColumnBatch batch;  // zero-copy slice over all rows, no selection
  SelectionVector identity;

  BenchTable() {
    auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
    auto int_null = tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
    auto dbl_t = tf.CreateSqlType(SqlTypeName::kDouble);
    auto dbl_null = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
    auto str_t = tf.CreateSqlType(SqlTypeName::kVarchar, 16);
    row_type = tf.CreateStructType(
        {"id", "a", "b", "x", "g", "gd", "gs"},
        {int_t, int_null, int_null, dbl_null, int_t, dbl_t, str_t});
    std::mt19937 rng(20260807);
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<int64_t> ival(0, kIntRange - 1);
    std::uniform_real_distribution<double> dval(0.0, 1000.0);
    rows.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      const int64_t grp = static_cast<int64_t>(i % 64);
      Row row;
      row.push_back(Value::Int(static_cast<int64_t>(i)));
      row.push_back(pct(rng) < kNullPct ? Value::Null()
                                        : Value::Int(ival(rng)));
      row.push_back(pct(rng) < kNullPct ? Value::Null()
                                        : Value::Int(ival(rng)));
      row.push_back(pct(rng) < kNullPct ? Value::Null()
                                        : Value::Double(dval(rng)));
      row.push_back(Value::Int(grp));
      row.push_back(Value::Double(static_cast<double>(grp) + 0.5));
      row.push_back(Value::String("grp-" + std::to_string(grp)));
      rows.push_back(std::move(row));
    }
    columns = TableColumns::Build(rows, *row_type);
    batch = SliceTableColumns(columns, 0, kRows, columns);
    identity.resize(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      identity[i] = static_cast<uint32_t>(i);
    }
  }
};

const BenchTable& Table() {
  static const BenchTable* table = new BenchTable();
  return *table;
}

RexNodePtr Call(const RexBuilder& rex, OpKind op,
                std::vector<RexNodePtr> operands) {
  auto call = rex.MakeCall(op, std::move(operands));
  if (!call.ok()) std::abort();
  return call.value();
}

/// Times AppendEvalColumn of `expr` over the full slice; one fresh arena
/// per iteration so output allocation is included. The program compiles
/// once, as in a pipeline.
void RunEvalBench(benchmark::State& state, const RexNodePtr& expr) {
  const BenchTable& t = Table();
  FusedExpr fused(expr);
  size_t rows_processed = 0;
  for (auto _ : state) {
    ColumnBatch out;
    out.arena = std::make_shared<Arena>();
    out.ShareStorage(t.batch);
    out.num_rows = t.batch.ActiveCount();
    Status s = fused.AppendEvalColumn(t.batch, &out);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(out.cols.data());
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}

// Ref-vs-ref int64 comparison kernel: $1 < $2 (both ~12% NULL).
void BM_KernelCompareI64(benchmark::State& state) {
  RexBuilder rex;
  const BenchTable& t = Table();
  RexNodePtr expr =
      Call(rex, OpKind::kLessThan,
           {rex.MakeInputRef(t.row_type, 1), rex.MakeInputRef(t.row_type, 2)});
  RunEvalBench(state, expr);
}
BENCHMARK(BM_KernelCompareI64)->Unit(benchmark::kMicrosecond);

// Ref-vs-literal double comparison kernel: $3 < 500.0.
void BM_KernelCompareF64Lit(benchmark::State& state) {
  RexBuilder rex;
  const BenchTable& t = Table();
  RexNodePtr expr = Call(rex, OpKind::kLessThan,
                         {rex.MakeInputRef(t.row_type, 3),
                          rex.MakeDoubleLiteral(500.0)});
  RunEvalBench(state, expr);
}
BENCHMARK(BM_KernelCompareF64Lit)->Unit(benchmark::kMicrosecond);

// Int64 arithmetic kernel with NULL folding: $1 * $2 + $1.
void BM_KernelArithI64(benchmark::State& state) {
  RexBuilder rex;
  const BenchTable& t = Table();
  RexNodePtr a = rex.MakeInputRef(t.row_type, 1);
  RexNodePtr b = rex.MakeInputRef(t.row_type, 2);
  RexNodePtr expr =
      Call(rex, OpKind::kPlus, {Call(rex, OpKind::kTimes, {a, b}), a});
  RunEvalBench(state, expr);
}
BENCHMARK(BM_KernelArithI64)->Unit(benchmark::kMicrosecond);

// Leaf predicate pushdown: NarrowByScanPredicate over the raw int column,
// identity candidates, threshold swept so ~10% / ~50% / ~90% of rows pass.
void BM_KernelNarrowPredicate(benchmark::State& state) {
  const BenchTable& t = Table();
  ScanPredicate pred;
  pred.kind = ScanPredicate::Kind::kLessThan;
  pred.column = 1;
  pred.literal = Value::Int(state.range(0));
  size_t rows_processed = 0;
  SelectionVector sel;
  for (auto _ : state) {
    sel = t.identity;
    NarrowByScanPredicate(pred, t.batch, &sel);
    benchmark::DoNotOptimize(sel.data());
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelNarrowPredicate)
    ->Arg(100)
    ->Arg(500)
    ->Arg(900)
    ->Unit(benchmark::kMicrosecond);

// Fused predicate + selection compaction: $1 < $2 is evaluated block by
// block and the selection is rebuilt from the pass mask.
void BM_KernelSelectionRefill(benchmark::State& state) {
  RexBuilder rex;
  const BenchTable& t = Table();
  FusedExpr pred(
      Call(rex, OpKind::kLessThan,
           {rex.MakeInputRef(t.row_type, 1), rex.MakeInputRef(t.row_type, 2)}));
  size_t rows_processed = 0;
  SelectionVector sel;
  for (auto _ : state) {
    sel = t.identity;
    Status s = pred.NarrowSelection(t.batch, &sel);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(sel.data());
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelSelectionRefill)->Unit(benchmark::kMicrosecond);

// FusedExpr over both entry points, each on a 3+-operator tree, at the
// pipeline batch size (1024: every iteration processes all 64 consecutive
// 1024-row slices, exactly what a batch-1024 pipeline does — and enough
// work per measurement to be stable on a shared box) and at the full 64K
// slice.
//
// narrow:0 — AppendEvalColumn of the five-operator mixed-type tree
// (($1 + $2) * $3) + (($1 - $2) * 0.5), run register-to-register in
// 1024-row blocks (casts convert in-register, the literal folds into an
// immediate); only the final column is written, to a fresh arena per
// batch.
//
// narrow:1 — NarrowSelection of the three-node range predicate
// $1 >= 100 AND $1 < 900, which fuses into a single inrange.i64 interval
// pass and one selection compaction.
//
// Programs compile once and are reused across batches, as pipelines do.
void BM_FusedExprSweep(benchmark::State& state) {
  RexBuilder rex;
  const BenchTable& t = Table();
  RexNodePtr a = rex.MakeInputRef(t.row_type, 1);
  RexNodePtr b = rex.MakeInputRef(t.row_type, 2);
  RexNodePtr x = rex.MakeInputRef(t.row_type, 3);
  RexNodePtr left =
      Call(rex, OpKind::kTimes, {Call(rex, OpKind::kPlus, {a, b}), x});
  RexNodePtr right =
      Call(rex, OpKind::kTimes,
           {Call(rex, OpKind::kMinus, {a, b}), rex.MakeDoubleLiteral(0.5)});
  RexNodePtr expr = Call(rex, OpKind::kPlus, {left, right});
  RexNodePtr pred =
      Call(rex, OpKind::kAnd,
           {Call(rex, OpKind::kGreaterThanOrEqual,
                 {a, rex.MakeIntLiteral(100)}),
            Call(rex, OpKind::kLessThan, {a, rex.MakeIntLiteral(900)})});
  const size_t batch_rows = static_cast<size_t>(state.range(0));
  const bool narrowing = state.range(1) != 0;
  std::vector<ColumnBatch> batches;
  for (size_t base = 0; base < kRows; base += batch_rows) {
    batches.push_back(SliceTableColumns(t.columns, base, batch_rows,
                                        t.columns));
  }
  SelectionVector identity(batch_rows);
  for (size_t i = 0; i < batch_rows; ++i) {
    identity[i] = static_cast<uint32_t>(i);
  }
  FusedExpr fexpr(expr);
  FusedExpr fpred(pred);
  size_t rows_processed = 0;
  SelectionVector sel;
  for (auto _ : state) {
    for (const ColumnBatch& in : batches) {
      if (narrowing) {
        sel = identity;
        Status s = fpred.NarrowSelection(in, &sel);
        if (!s.ok()) state.SkipWithError(s.ToString().c_str());
        benchmark::DoNotOptimize(sel.data());
      } else {
        ColumnBatch out;
        out.arena = std::make_shared<Arena>();
        out.ShareStorage(in);
        out.num_rows = in.ActiveCount();
        Status s = fexpr.AppendEvalColumn(in, &out);
        if (!s.ok()) state.SkipWithError(s.ToString().c_str());
        benchmark::DoNotOptimize(out.cols.data());
      }
    }
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FusedExprSweep)
    ->ArgNames({"batch", "narrow"})
    ->Args({1024, 0})
    ->Args({65536, 0})
    ->Args({1024, 1})
    ->Args({65536, 1})
    ->Unit(benchmark::kMicrosecond);

// Group-id resolution in the columnar hash aggregate: SUM($1) GROUP BY the
// key column given by Arg (4 = int64, 5 = double, 6 = string; 64 distinct
// values each). Feed dominates in resolve + typed adds; the builder is
// reused so steady-state lookups are measured, not growth.
void BM_KernelHashGroupResolve(benchmark::State& state) {
  const BenchTable& t = Table();
  AggregateCall call;
  call.kind = AggKind::kSum;
  call.args = {1};
  call.name = "s";
  call.type = t.tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto builder = std::make_unique<ColumnarAggBuilder>(
      std::vector<int>{static_cast<int>(state.range(0))},
      std::vector<AggregateCall>{call});
  size_t rows_processed = 0;
  for (auto _ : state) {
    Status s = builder->Feed(t.batch);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelHashGroupResolve)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace calcite
