// Experiment F1 (Figure 1): the architecture's end-to-end pipeline.
// Measures each stage of the interaction Figure 1 depicts — SQL parse,
// validate+convert to algebra, logical (rule) optimization, cost-based
// physical planning, execution — plus the alternative entry point for
// systems with their own parser (the expression builder).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>

#include "adapters/enumerable/enumerable_rels.h"
#include "adapters/enumerable/enumerable_rules.h"
#include "bench_common.h"
#include "plan/hep_planner.h"
#include "plan/volcano_planner.h"
#include "rex/rex_builder.h"
#include "rules/core_rules.h"
#include "sql/parser.h"
#include "sql/sql_to_rel.h"
#include "storage/disk_table.h"
#include "tools/rel_builder.h"

namespace calcite {
namespace {

const char* kQuery =
    "SELECT products.name, COUNT(*) AS c "
    "FROM sales JOIN products USING (productId) "
    "WHERE sales.discount IS NOT NULL "
    "GROUP BY products.name ORDER BY c DESC";

void BM_Stage1_Parse(benchmark::State& state) {
  for (auto _ : state) {
    auto ast = SqlParser::Parse(kQuery);
    benchmark::DoNotOptimize(ast);
  }
}
BENCHMARK(BM_Stage1_Parse);

void BM_Stage2_ValidateAndConvert(benchmark::State& state) {
  SchemaPtr schema = bench::MakeSalesSchema(1000, 50);
  PlannerContext context;
  auto ast = SqlParser::Parse(kQuery);
  for (auto _ : state) {
    SqlToRelConverter converter(schema, &context);
    auto rel = converter.Convert(ast.value());
    benchmark::DoNotOptimize(rel);
  }
}
BENCHMARK(BM_Stage2_ValidateAndConvert);

void BM_Stage3_LogicalRules(benchmark::State& state) {
  SchemaPtr schema = bench::MakeSalesSchema(1000, 50);
  Connection conn{Connection::Config{schema}};
  auto logical = conn.ParseQuery(kQuery);
  for (auto _ : state) {
    PlannerContext context;
    HepPlanner planner(StandardLogicalRules(), &context);
    auto out = planner.Optimize(logical.value());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Stage3_LogicalRules);

void BM_Stage4_CostBasedPlanning(benchmark::State& state) {
  SchemaPtr schema = bench::MakeSalesSchema(1000, 50);
  Connection conn{Connection::Config{schema}};
  auto logical = conn.ParseQuery(kQuery);
  PlannerContext hep_context;
  HepPlanner hep(StandardLogicalRules(), &hep_context);
  auto rewritten = hep.Optimize(logical.value());
  for (auto _ : state) {
    PlannerContext context;
    std::vector<RelOptRulePtr> rules = EnumerableConverterRules();
    VolcanoPlanner planner(rules, &context);
    auto out = planner.Optimize(rewritten.value(),
                                RelTraitSet(Convention::Enumerable()));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Stage4_CostBasedPlanning);

void BM_Stage5_Execute(benchmark::State& state) {
  SchemaPtr schema = bench::MakeSalesSchema(1000, 50);
  Connection conn{Connection::Config{schema}};
  auto logical = conn.ParseQuery(kQuery);
  auto physical = conn.OptimizePlan(logical.value());
  for (auto _ : state) {
    auto rows = physical.value()->Execute();
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_Stage5_Execute);

// Experiment F1b: the vectorized executor's batch-size sweep. One fixed
// scan -> filter -> project -> aggregate pipeline over 100k sales rows,
// executed at batch sizes 1 / 64 / 1024 / 4096. batch_size=1 is the old
// row-at-a-time discipline (one pipeline dispatch per tuple); the larger
// settings amortize that dispatch across a whole RowBatch. The counter
// reports source rows per second.
void BM_BatchSizeSweep(benchmark::State& state) {
  constexpr int kRows = 100000;
  SchemaPtr schema = bench::MakeSalesSchema(kRows, 50);
  Connection::Config config;
  config.schema = schema;
  config.exec_options.batch_size = static_cast<size_t>(state.range(0));
  Connection conn(std::move(config));
  auto logical = conn.ParseQuery(
      "SELECT productId, COUNT(*) AS c, SUM(units) AS u, MIN(saleid) AS f, "
      "MAX(discount) AS m "
      "FROM sales WHERE discount IS NOT NULL AND units > 2 "
      "AND saleid >= 0 AND discount < 0.95 "
      "GROUP BY productId");
  auto physical = conn.OptimizePlan(logical.value());
  int64_t rows_processed = 0;
  for (auto _ : state) {
    auto result = conn.ExecutePlan(physical.value());
    benchmark::DoNotOptimize(result);
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchSizeSweep)->Arg(1)->Arg(64)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// Experiment F1b': the filter-heavy companion of the batch-size sweep,
// aimed at the selection-pushdown machinery. A selective conjunction of
// simple comparisons sits directly over the scan, so every conjunct pushes
// into the leaf (typed loops over the table's column storage): rows failing
// the predicates are never materialized, survivors flow to the projection
// as a selection vector with no compaction in between, and the
// projection's arithmetic runs through the fused columnar kernels
// (FusedExpr). The counter reports source
// rows per second (the scan still inspects every stored row).
void BM_FilterPushdownSweep(benchmark::State& state) {
  constexpr int kRows = 100000;
  SchemaPtr schema = bench::MakeSalesSchema(kRows, 50);
  Connection::Config config;
  config.schema = schema;
  config.exec_options.batch_size = static_cast<size_t>(state.range(0));
  Connection conn(std::move(config));
  auto logical = conn.ParseQuery(
      "SELECT saleid, units * 2, discount "
      "FROM sales WHERE units > 7 AND discount IS NOT NULL "
      "AND discount < 0.3 AND saleid >= 1000");
  auto physical = conn.OptimizePlan(logical.value());
  int64_t rows_processed = 0;
  for (auto _ : state) {
    auto result = conn.ExecutePlan(physical.value());
    benchmark::DoNotOptimize(result);
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FilterPushdownSweep)->Arg(1)->Arg(64)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// Experiment F1c: the morsel-driven parallel executor's thread sweep. The
// same scan -> filter -> project -> aggregate pipeline as F1b plus a
// join-heavy plan, executed at batch_size 1024 with 1 / 2 / 4 / 8 worker
// threads. num_threads=1 is the serial engine (no scheduler, no exchange);
// the larger settings run the aggregate's fragment as morsel-parallel
// workers feeding a partitioned aggregate, and the join's probe-side
// pipeline as morsel-parallel workers whose batches the serial hash join
// consumes. The counter reports source rows per second; expect scaling up
// to the physical core count only in the parallel fragments.
void BM_ParallelSweep_Aggregate(benchmark::State& state) {
  constexpr int kRows = 100000;
  SchemaPtr schema = bench::MakeSalesSchema(kRows, 50);
  Connection::Config config;
  config.schema = schema;
  config.exec_options.batch_size = 1024;
  config.exec_options.num_threads = static_cast<size_t>(state.range(0));
  Connection conn(std::move(config));
  auto logical = conn.ParseQuery(
      "SELECT productId, COUNT(*) AS c, SUM(units) AS u, MIN(saleid) AS f, "
      "MAX(discount) AS m "
      "FROM sales WHERE discount IS NOT NULL AND units > 2 "
      "AND saleid >= 0 AND discount < 0.95 "
      "GROUP BY productId");
  auto physical = conn.OptimizePlan(logical.value());
  int64_t rows_processed = 0;
  for (auto _ : state) {
    auto result = conn.ExecutePlan(physical.value());
    benchmark::DoNotOptimize(result);
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelSweep_Aggregate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ParallelSweep_Join(benchmark::State& state) {
  constexpr int kRows = 100000;
  SchemaPtr schema = bench::MakeSalesSchema(kRows, 200);
  Connection::Config config;
  config.schema = schema;
  config.exec_options.batch_size = 1024;
  config.exec_options.num_threads = static_cast<size_t>(state.range(0));
  Connection conn(std::move(config));
  auto logical = conn.ParseQuery(
      "SELECT products.name, COUNT(*) AS c, SUM(sales.units) AS u "
      "FROM sales JOIN products USING (productId) "
      "WHERE sales.units > 1 GROUP BY products.name");
  auto physical = conn.OptimizePlan(logical.value());
  int64_t rows_processed = 0;
  for (auto _ : state) {
    auto result = conn.ExecutePlan(physical.value());
    benchmark::DoNotOptimize(result);
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelSweep_Join)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Experiment F1c': the hash join operator alone. A 120k-row probe table
// joins a build table of arg0 rows (4k: a dimension; 60k: half the probe)
// on a unique build key, so every probe row matches exactly once; a
// COUNT(*) above the join consumes its output without boxing it. Serial,
// batch_size 1024. The counter reports probe rows per second.
void BM_HashJoinBuildProbe(benchmark::State& state) {
  constexpr int64_t kProbeRows = 120000;
  const int64_t build_rows = state.range(0);
  auto& tf = bench::Tf();
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto dbl_t = tf.CreateSqlType(SqlTypeName::kDouble);
  auto str_t = tf.CreateSqlType(SqlTypeName::kVarchar, 16);
  auto scan_of = [&](std::vector<std::string> names,
                     std::vector<RelDataTypePtr> types, std::vector<Row> rows) {
    auto table = std::make_shared<MemTable>(
        tf.CreateStructType(std::move(names), std::move(types)),
        std::move(rows));
    auto logical =
        LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf);
    return EnumerableTableScan::Create(
        *static_cast<const TableScan*>(logical.get()));
  };
  std::vector<Row> probe_rows;
  for (int64_t i = 0; i < kProbeRows; ++i) {
    probe_rows.push_back({Value::Int(i), Value::Int((i * 7919) % build_rows),
                          Value::Double(static_cast<double>(i % 100))});
  }
  std::vector<Row> build_table;
  for (int64_t i = 0; i < build_rows; ++i) {
    build_table.push_back({Value::Int(i), Value::Double(i * 0.25),
                           Value::String("b" + std::to_string(i % 97))});
  }
  RelNodePtr probe = scan_of({"id", "k", "x"}, {int_t, int_t, dbl_t},
                             std::move(probe_rows));
  RelNodePtr build = scan_of({"k", "v", "s"}, {int_t, dbl_t, str_t},
                             std::move(build_table));
  RexBuilder rex;
  RexNodePtr equi = rex.MakeEquals(rex.MakeInputRef(probe->row_type(), 1),
                                   rex.MakeInputRef(3, int_t));
  auto join_type = DeriveJoinRowType(probe->row_type(), build->row_type(),
                                     JoinType::kInner, tf);
  RelNodePtr join = EnumerableHashJoin::Create(probe, build, equi,
                                               JoinType::kInner, join_type);
  AggregateCall count;
  count.kind = AggKind::kCountStar;
  count.name = "c";
  RelNodePtr plan = EnumerableAggregate::Create(
      join, {}, {count}, DeriveAggregateRowType(join_type, {}, {count}, tf));
  ExecOptions opts;
  opts.batch_size = 1024;
  int64_t rows_processed = 0;
  for (auto _ : state) {
    auto rows = plan->Execute(opts);
    if (!rows.ok() || rows.value()[0][0].AsInt() != kProbeRows) {
      state.SkipWithError("wrong join result");
      break;
    }
    rows_processed += kProbeRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HashJoinBuildProbe)->Arg(4000)->Arg(60000)
    ->Unit(benchmark::kMillisecond);

// Experiment F1d: B-tree index-range scan vs full heap scan over an
// out-of-core DiskTable (src/storage/) at three selectivities. 200k rows
// in slotted heap pages behind a 64-page buffer pool (the table is ~50x
// larger than the pool, so the full scan cycles every page through
// eviction), primary key = column 0. The pushed predicate is a key range
// keeping 0.01% / 1% / 50% of the rows; arg1 toggles the index route off,
// forcing the same predicate through the full heap scan. The acceptance
// bar: at <= 1% selectivity the index route beats the heap route by >= 5x.
// The counter reports *result* rows per second — compare iteration time,
// not the counter, across selectivities.
void BM_IndexScanVsFullScan(benchmark::State& state) {
  constexpr int64_t kRows = 200000;
  static std::shared_ptr<storage::DiskTable> table = [] {
    TypeFactory tf;
    auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
    auto str_t = tf.CreateSqlType(SqlTypeName::kVarchar, 24, true);
    auto dbl_t = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
    auto row_type = tf.CreateStructType({"id", "payload", "weight"},
                                        {int_t, str_t, dbl_t});
    storage::DiskTableOptions opts;
    opts.pool_pages = 64;
    auto created = storage::DiskTable::Create("/tmp/calcite_bench_index.db",
                                              row_type, 0, opts);
    if (!created.ok()) return std::shared_ptr<storage::DiskTable>();
    std::vector<Row> rows;
    rows.reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      rows.push_back({Value::Int(i),
                      Value::String("payload-" + std::to_string(i % 97)),
                      Value::Double(static_cast<double>(i % 31) * 1.5)});
    }
    if (!(*created)->InsertRows(rows).ok()) {
      return std::shared_ptr<storage::DiskTable>();
    }
    return *created;
  }();
  if (table == nullptr) {
    state.SkipWithError("disk table setup failed");
    return;
  }

  const int64_t selectivity_bp = state.range(0);  // basis points (1/10000)
  const bool use_index = state.range(1) != 0;
  const int64_t span = std::max<int64_t>(1, kRows * selectivity_bp / 10000);

  ScanPredicate lo;
  lo.kind = ScanPredicate::Kind::kGreaterThanOrEqual;
  lo.column = 0;
  lo.literal = Value::Int(kRows / 2);
  ScanPredicate hi;
  hi.kind = ScanPredicate::Kind::kLessThan;
  hi.column = 0;
  hi.literal = Value::Int(kRows / 2 + span);

  int64_t result_rows = 0;
  for (auto _ : state) {
    ScanSpec spec;
    spec.batch_size = 1024;
    spec.predicates = {lo, hi};
    spec.access_path =
        use_index ? AccessPath::kForceIndex : AccessPath::kForceHeap;
    auto puller = table->OpenScan(spec);
    if (!puller.ok()) {
      state.SkipWithError("scan failed");
      return;
    }
    for (;;) {
      auto batch = (puller.value())();
      if (!batch.ok()) {
        state.SkipWithError("pull failed");
        return;
      }
      if (batch.value().empty()) break;
      result_rows += static_cast<int64_t>(batch.value().size());
      benchmark::DoNotOptimize(batch.value());
    }
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(result_rows), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IndexScanVsFullScan)
    ->ArgsProduct({{1, 100, 5000}, {1, 0}})  // {selectivity bp} x {index on/off}
    ->Unit(benchmark::kMillisecond);

// The cost-based access-path acceptance bench: a 200k-row ANALYZEd disk
// table, scanned at 0.01% / 1% / 50% key-range selectivity under each
// AccessPath (arg1: 0=kAuto, 1=kForceIndex, 2=kForceHeap). Unlike
// BM_IndexScanVsFullScan, rows are inserted in *shuffled* key order, so an
// index range walk pays a random heap fetch per row through the small pool
// — the regime where the break-even is real: the index wins the narrow
// ranges, the sequential heap pass wins the wide one. Acceptance: kAuto
// matches the faster forced path at every selectivity (it picks index at
// 1bp/100bp, heap at 5000bp). The used_index counter reports the chosen
// path.
void BM_CostBasedAccessPath(benchmark::State& state) {
  constexpr int64_t kRows = 200000;
  static std::shared_ptr<storage::DiskTable> table = [] {
    TypeFactory tf;
    auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
    auto str_t = tf.CreateSqlType(SqlTypeName::kVarchar, 24, true);
    auto dbl_t = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
    auto row_type = tf.CreateStructType({"id", "payload", "weight"},
                                        {int_t, str_t, dbl_t});
    storage::DiskTableOptions opts;
    opts.pool_pages = 64;
    auto created = storage::DiskTable::Create("/tmp/calcite_bench_cost.db",
                                              row_type, 0, opts);
    if (!created.ok()) return std::shared_ptr<storage::DiskTable>();
    std::vector<int64_t> keys(kRows);
    for (int64_t i = 0; i < kRows; ++i) keys[static_cast<size_t>(i)] = i;
    std::mt19937_64 rng(20240807);
    std::shuffle(keys.begin(), keys.end(), rng);
    std::vector<Row> rows;
    rows.reserve(kRows);
    for (int64_t key : keys) {
      rows.push_back({Value::Int(key),
                      Value::String("payload-" + std::to_string(key % 97)),
                      Value::Double(static_cast<double>(key % 31) * 1.5)});
    }
    if (!(*created)->InsertRows(rows).ok()) {
      return std::shared_ptr<storage::DiskTable>();
    }
    if (!(*created)->Analyze().ok()) {
      return std::shared_ptr<storage::DiskTable>();
    }
    return *created;
  }();
  if (table == nullptr) {
    state.SkipWithError("disk table setup failed");
    return;
  }

  const int64_t selectivity_bp = state.range(0);  // basis points (1/10000)
  const int64_t span = std::max<int64_t>(1, kRows * selectivity_bp / 10000);

  ScanSpec spec;
  switch (state.range(1)) {
    case 1:
      spec.access_path = AccessPath::kForceIndex;
      break;
    case 2:
      spec.access_path = AccessPath::kForceHeap;
      break;
    default:
      spec.access_path = AccessPath::kAuto;
      break;
  }
  ScanPredicate lo;
  lo.kind = ScanPredicate::Kind::kGreaterThanOrEqual;
  lo.column = 0;
  lo.literal = Value::Int(kRows / 2);
  ScanPredicate hi;
  hi.kind = ScanPredicate::Kind::kLessThan;
  hi.column = 0;
  hi.literal = Value::Int(kRows / 2 + span);
  spec.predicates = {lo, hi};

  int64_t result_rows = 0;
  for (auto _ : state) {
    auto puller = table->OpenScan(spec);
    if (!puller.ok()) {
      state.SkipWithError("scan failed");
      return;
    }
    for (;;) {
      auto batch = (puller.value())();
      if (!batch.ok()) {
        state.SkipWithError("pull failed");
        return;
      }
      if (batch.value().empty()) break;
      result_rows += static_cast<int64_t>(batch.value().size());
      benchmark::DoNotOptimize(batch.value());
    }
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(result_rows), benchmark::Counter::kIsRate);
  state.counters["used_index"] = table->last_scan_used_index() ? 1.0 : 0.0;
}
BENCHMARK(BM_CostBasedAccessPath)
    // {selectivity bp} x {0=kAuto, 1=kForceIndex, 2=kForceHeap}
    ->ArgsProduct({{1, 100, 5000}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

void BM_AltEntry_ExpressionBuilder(benchmark::State& state) {
  // The "own parser" integration path (§3): algebra built directly.
  SchemaPtr schema = bench::MakeSalesSchema(1000, 50);
  for (auto _ : state) {
    RelBuilder b(schema);
    b.Scan("sales");
    auto node = b.Aggregate(b.GroupKey({"productId"}),
                            {b.Count(false, "c"),
                             b.Sum(false, "s", b.Field("units"))})
                    .Build();
    benchmark::DoNotOptimize(node);
  }
}
BENCHMARK(BM_AltEntry_ExpressionBuilder);

}  // namespace
}  // namespace calcite
