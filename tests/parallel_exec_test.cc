// Tests of the morsel-driven parallel execution subsystem
// (src/exec/parallel/): unit tests of the scheduler / morsel source /
// exchange primitives, thread-count sweeps asserting parallel plans produce
// the same multiset of rows as the serial engine (order-insensitive —
// workers race for morsels), a differential check that num_threads = 1 is
// byte-identical to the serial pipelines, error propagation
// (cancellation-on-error), and the ExecOptions validation clamp.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapters/enumerable/enumerable_rels.h"
#include "exec/parallel/exchange.h"
#include "exec/parallel/morsel.h"
#include "exec/parallel/task_scheduler.h"
#include "rel/core.h"
#include "rex/rex_builder.h"
#include "storage/disk_table.h"
#include "stream/stream.h"
#include "test_schema.h"
#include "tools/frameworks.h"

namespace calcite {
namespace {

const std::vector<size_t> kThreadCounts = {1, 2, 4, 8};
const std::vector<size_t> kSweepBatchSizes = {1, 1024};

// ------------------------------ primitives --------------------------------

TEST(TaskSchedulerTest, RunsEverySubmittedTask) {
  TaskScheduler scheduler(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    scheduler.Submit([&done] { done.fetch_add(1); });
  }
  scheduler.WaitIdle();
  EXPECT_EQ(done.load(), 100);
  // The pool is reusable after going idle.
  for (int i = 0; i < 10; ++i) {
    scheduler.Submit([&done] { done.fetch_add(1); });
  }
  scheduler.WaitIdle();
  EXPECT_EQ(done.load(), 110);
}

TEST(TaskSchedulerTest, DestructorCompletesQueuedTasks) {
  std::atomic<int> done{0};
  {
    TaskScheduler scheduler(2);
    for (int i = 0; i < 50; ++i) {
      scheduler.Submit([&done] { done.fetch_add(1); });
    }
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(QueryCancelStateTest, FirstErrorWins) {
  QueryCancelState cancel;
  EXPECT_FALSE(cancel.cancelled());
  EXPECT_TRUE(cancel.status().ok());
  cancel.Cancel(Status::OK());  // benign cancellation keeps status OK
  EXPECT_TRUE(cancel.cancelled());
  cancel.Cancel(Status::RuntimeError("first"));
  cancel.Cancel(Status::RuntimeError("second"));
  EXPECT_EQ(cancel.status().message(), "first");
}

TEST(MorselSourceTest, ClaimsCoverRangeExactlyOnce) {
  MorselSource source(10000, 256);
  std::vector<bool> claimed(10000, false);
  while (auto m = source.Next()) {
    ASSERT_LT(m->begin, m->end);
    ASSERT_LE(m->end, 10000u);
    for (size_t i = m->begin; i < m->end; ++i) {
      ASSERT_FALSE(claimed[i]) << "row " << i << " claimed twice";
      claimed[i] = true;
    }
  }
  EXPECT_TRUE(std::all_of(claimed.begin(), claimed.end(),
                          [](bool b) { return b; }));
}

TEST(MorselSourceTest, ConcurrentClaimsAreDisjoint) {
  constexpr size_t kRows = 100000;
  MorselSource source(kRows, 64);
  std::vector<std::vector<Morsel>> claims(4);
  {
    TaskScheduler scheduler(4);
    for (size_t t = 0; t < 4; ++t) {
      std::vector<Morsel>* mine = &claims[t];
      scheduler.Submit([&source, mine] {
        while (auto m = source.Next()) mine->push_back(*m);
      });
    }
    scheduler.WaitIdle();
  }
  std::vector<bool> claimed(kRows, false);
  for (const auto& worker : claims) {
    for (const Morsel& m : worker) {
      for (size_t i = m.begin; i < m.end; ++i) {
        ASSERT_FALSE(claimed[i]);
        claimed[i] = true;
      }
    }
  }
  EXPECT_TRUE(std::all_of(claimed.begin(), claimed.end(),
                          [](bool b) { return b; }));
}

TEST(ExchangeQueueTest, DeliversEveryBatchThenTerminates) {
  constexpr size_t kProducers = 3;
  constexpr size_t kBatchesEach = 40;
  ExchangeQueue queue(/*capacity=*/4, kProducers);
  TaskScheduler scheduler(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    scheduler.Submit([&queue] {
      for (size_t b = 0; b < kBatchesEach; ++b) {
        RowBatch batch;
        batch.push_back({Value::Int(static_cast<int64_t>(b))});
        ASSERT_TRUE(queue.Push(std::move(batch)));
      }
      queue.ProducerDone();
    });
  }
  size_t rows = 0;
  while (auto batch = queue.Pop()) rows += batch->size();
  EXPECT_EQ(rows, kProducers * kBatchesEach);
}

TEST(ExchangeQueueTest, CancelUnblocksFullQueueProducers) {
  ExchangeQueue queue(/*capacity=*/1, /*num_producers=*/1);
  std::atomic<bool> producer_exited{false};
  std::thread producer([&] {
    RowBatch one_row = {{Value::Int(1)}};
    while (queue.Push(one_row)) {
    }
    producer_exited = true;
  });
  // Let the producer fill the queue and park in Push, then cancel.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(producer_exited.load());
  queue.Cancel();
  producer.join();
  EXPECT_TRUE(producer_exited.load());
  EXPECT_FALSE(queue.Pop().has_value());
}

// ------------------------- ExecOptions validation -------------------------

TEST(ExecOptionsTest, ZeroValuesClampToOne) {
  ExecOptions opts;
  opts.batch_size = 0;
  opts.num_threads = 0;
  ExecOptions normalized = opts.Normalized();
  EXPECT_EQ(normalized.batch_size, 1u);
  EXPECT_EQ(normalized.num_threads, 1u);
  // Valid settings pass through untouched.
  opts.batch_size = 77;
  opts.num_threads = 3;
  normalized = opts.Normalized();
  EXPECT_EQ(normalized.batch_size, 77u);
  EXPECT_EQ(normalized.num_threads, 3u);
}

TEST(ExecOptionsTest, ZeroedConnectionConfigStillExecutes) {
  Connection::Config config;
  config.schema = testing::MakeTestSchema();
  config.exec_options.batch_size = 0;   // would degenerate pullers unclamped
  config.exec_options.num_threads = 0;  // would have no workers unclamped
  Connection conn(std::move(config));
  auto result = conn.Query("SELECT COUNT(*) AS c FROM sales");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(RowToString(result.value().rows[0]), "[6]");
}

// ------------------------ operator-level thread sweep ---------------------

/// Same NULL-heavy four-column data set as the batch parity suite.
RelDataTypePtr SweepRowType(const TypeFactory& tf) {
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto int_null = tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto str_null = tf.CreateSqlType(SqlTypeName::kVarchar, 20, true);
  auto dbl_null = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
  return tf.CreateStructType({"id", "k", "s", "d"},
                             {int_t, int_null, str_null, dbl_null});
}

std::vector<Row> SweepRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(
        {Value::Int(static_cast<int64_t>(i)),
         i % 3 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(i % 7)),
         i % 5 == 0 ? Value::Null()
                    : Value::String("s" + std::to_string(i % 11)),
         // Multiples of 0.25 stay binary-exact, so partial sums merged in
         // any order finish bit-identical to the serial left fold.
         i % 4 == 0 ? Value::Null()
                    : Value::Double(static_cast<double>(i % 13) * 0.25)});
  }
  return rows;
}

Result<std::vector<Row>> Drain(const RelNodePtr& node, size_t num_threads,
                               size_t batch_size) {
  ExecOptions opts;
  opts.batch_size = batch_size;
  opts.num_threads = num_threads;
  auto puller = node->ExecuteBatched(opts);
  if (!puller.ok()) return puller.status();
  return DrainBatches(puller.value());
}

std::vector<std::string> SortedStrings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs `node` serially and at every (threads x batch) sweep point,
/// asserting the same multiset of output rows each time.
void ExpectThreadSweepParity(
    const RelNodePtr& node, const std::string& label,
    const std::vector<size_t>& thread_counts = kThreadCounts,
    const std::vector<size_t>& batch_sizes = kSweepBatchSizes) {
  auto serial = Drain(node, 1, 1024);
  ASSERT_TRUE(serial.ok()) << label << ": " << serial.status().ToString();
  std::vector<std::string> expected = SortedStrings(serial.value());
  for (size_t threads : thread_counts) {
    for (size_t bs : batch_sizes) {
      auto got = Drain(node, threads, bs);
      ASSERT_TRUE(got.ok()) << label << " threads=" << threads << " bs=" << bs
                            << ": " << got.status().ToString();
      EXPECT_EQ(SortedStrings(got.value()), expected)
          << label << " threads=" << threads << " bs=" << bs;
    }
  }
}

class ParallelSweepTest : public ::testing::Test {
 protected:
  RelNodePtr ScanLeaf(size_t n) {
    return ScanOf(std::make_shared<MemTable>(SweepRowType(tf_), SweepRows(n)));
  }

  RelNodePtr ScanOf(const TablePtr& table) {
    auto logical = LogicalTableScan::Create(table, {"t"},
                                            Convention::Enumerable(), tf_);
    return EnumerableTableScan::Create(
        *static_cast<const TableScan*>(logical.get()));
  }

  /// COUNT(*), SUM(d) and COUNT(DISTINCT k) grouped by `keys` over `input`.
  RelNodePtr AggregateOf(const RelNodePtr& input, std::vector<int> keys) {
    std::vector<AggregateCall> calls;
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
    auto row_type = DeriveAggregateRowType(input->row_type(), keys, calls, tf_);
    return EnumerableAggregate::Create(input, std::move(keys), calls, row_type);
  }

  /// `left` JOIN `right` ON left.k = right.k.
  RelNodePtr JoinOnK(const RelNodePtr& left, const RelNodePtr& right,
                     JoinType join_type) {
    const RelDataTypePtr& lt = left->row_type();
    const RelDataTypePtr& rt = right->row_type();
    const int left_width = static_cast<int>(lt->fields().size());
    auto equi = rex_.MakeEquals(
        Field(lt, 1), rex_.MakeInputRef(left_width + 1, rt->fields()[1].type));
    return EnumerableHashJoin::Create(
        left, right, equi, join_type,
        DeriveJoinRowType(lt, rt, join_type, tf_));
  }

  RexNodePtr Field(const RelDataTypePtr& row_type, int i) {
    return rex_.MakeInputRef(row_type, i);
  }

  /// `leaf` under a filter every row passes (id >= 0, pushed into the
  /// leaf): a bare in-memory scan gives morsel workers nothing to do and
  /// stays serial, this one still runs morsel-parallel.
  RelNodePtr AllRows(const RelNodePtr& leaf) {
    auto cond = rex_.MakeCall(OpKind::kGreaterThanOrEqual,
                              {Field(leaf->row_type(), 0),
                               rex_.MakeIntLiteral(0)});
    EXPECT_TRUE(cond.ok());
    return EnumerableFilter::Create(leaf, cond.value());
  }

  /// scan -> filter(id < limit AND k IS NOT NULL) -> project(id, id + 7).
  RelNodePtr FilterProjectPipeline(size_t n, int64_t limit) {
    RelNodePtr leaf = ScanLeaf(n);
    const RelDataTypePtr& rt = leaf->row_type();
    auto cmp = rex_.MakeCall(OpKind::kLessThan,
                             {Field(rt, 0), rex_.MakeIntLiteral(limit)});
    EXPECT_TRUE(cmp.ok());
    auto not_null = rex_.MakeCall(OpKind::kIsNotNull, {Field(rt, 1)});
    EXPECT_TRUE(not_null.ok());
    RelNodePtr filtered = EnumerableFilter::Create(
        leaf, rex_.MakeAnd({cmp.value(), not_null.value()}));
    auto sum = rex_.MakeCall(OpKind::kPlus,
                             {Field(rt, 0), rex_.MakeIntLiteral(7)});
    EXPECT_TRUE(sum.ok());
    std::vector<RexNodePtr> exprs = {Field(rt, 0), sum.value()};
    auto row_type = DeriveProjectRowType(exprs, {"id", "id7"}, tf_);
    return EnumerableProject::Create(filtered, exprs, row_type);
  }

  TypeFactory tf_;
  RexBuilder rex_;
};

TEST_F(ParallelSweepTest, MorselScan) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{1025}, size_t{20000}}) {
    ExpectThreadSweepParity(ScanLeaf(n), "scan n=" + std::to_string(n));
    ExpectThreadSweepParity(AllRows(ScanLeaf(n)),
                            "filtered scan n=" + std::to_string(n));
  }
}

TEST_F(ParallelSweepTest, ScanFilterProjectPipeline) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{1025}, size_t{20000}}) {
    ExpectThreadSweepParity(FilterProjectPipeline(n, 15000),
                            "pipeline n=" + std::to_string(n));
  }
  // A filter that eliminates everything still terminates cleanly.
  ExpectThreadSweepParity(FilterProjectPipeline(5000, -1), "pipeline empty");
}

TEST_F(ParallelSweepTest, PartitionedAggregate) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{1025}, size_t{20000}}) {
    RelNodePtr leaf = ScanLeaf(n);
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
    std::string label = "agg n=" + std::to_string(n);
    {
      auto row_type = DeriveAggregateRowType(rt, {}, calls, tf_);
      ExpectThreadSweepParity(
          EnumerableAggregate::Create(leaf, {}, calls, row_type),
          label + " global");
    }
    {
      auto row_type = DeriveAggregateRowType(rt, {1}, calls, tf_);
      ExpectThreadSweepParity(
          EnumerableAggregate::Create(leaf, {1}, calls, row_type),
          label + " by k");
    }
    {
      auto row_type = DeriveAggregateRowType(rt, {1, 2}, calls, tf_);
      ExpectThreadSweepParity(
          EnumerableAggregate::Create(leaf, {1, 2}, calls, row_type),
          label + " by k,s");
    }
  }
}

TEST_F(ParallelSweepTest, PartitionedHashJoinAllTypes) {
  const std::vector<JoinType> join_types = {
      JoinType::kInner, JoinType::kLeft, JoinType::kRight,
      JoinType::kFull,  JoinType::kSemi, JoinType::kAnti};
  for (size_t n : {size_t{0}, size_t{1}, size_t{4000}}) {
    for (size_t m : {size_t{0}, size_t{300}}) {
      RelNodePtr left = AllRows(ScanLeaf(n));
      RelNodePtr right = AllRows(ScanLeaf(m));
      const RelDataTypePtr& lt = left->row_type();
      const RelDataTypePtr& rt = right->row_type();
      size_t left_width = lt->fields().size();
      // Equi-key on the NULL-heavy k columns plus a non-equi residual.
      auto equi = rex_.MakeEquals(
          Field(lt, 1),
          rex_.MakeInputRef(static_cast<int>(left_width) + 1,
                            rt->fields()[1].type));
      auto bound = rex_.MakeCall(
          OpKind::kPlus,
          {rex_.MakeInputRef(static_cast<int>(left_width) + 0,
                             rt->fields()[0].type),
           rex_.MakeIntLiteral(3000)});
      ASSERT_TRUE(bound.ok());
      auto residual =
          rex_.MakeCall(OpKind::kLessThan, {Field(lt, 0), bound.value()});
      ASSERT_TRUE(residual.ok());
      RexNodePtr condition = rex_.MakeAnd({equi, residual.value()});
      for (JoinType jt : join_types) {
        auto row_type = DeriveJoinRowType(lt, rt, jt, tf_);
        auto join =
            EnumerableHashJoin::Create(left, right, condition, jt, row_type);
        ExpectThreadSweepParity(join, std::string("join ") + JoinTypeName(jt) +
                                          " n=" + std::to_string(n) +
                                          " m=" + std::to_string(m));
      }
    }
  }
}

// A probe side that is itself a filtered pipeline exercises the in-worker
// stage chain of the partitioned join.
TEST_F(ParallelSweepTest, JoinOverFilteredProbePipeline) {
  RelNodePtr left = FilterProjectPipeline(8000, 6000);
  RelNodePtr right = ScanLeaf(200);
  const RelDataTypePtr& lt = left->row_type();
  const RelDataTypePtr& rt = right->row_type();
  auto equi = rex_.MakeEquals(
      Field(lt, 0), rex_.MakeInputRef(static_cast<int>(lt->fields().size()),
                                      rt->fields()[0].type));
  auto row_type = DeriveJoinRowType(lt, rt, JoinType::kInner, tf_);
  auto join = EnumerableHashJoin::Create(left, right, equi, JoinType::kInner,
                                         row_type);
  ExpectThreadSweepParity(join, "join over pipeline");
}

// Parallel fragments over an out-of-core DiskTable read one unit-ranged
// OpenScan per page run and decode it into ColumnBatches — never the whole
// table — and leave no buffer-pool frame pinned.
TEST_F(ParallelSweepTest, DiskTableAggregateAndJoin) {
  char tmpl[] = "/tmp/calcite_par_disk_XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string dir_path = dir;
  for (size_t n : {size_t{1}, size_t{4000}}) {
    storage::DiskTableOptions dt_opts;
    dt_opts.pool_pages = 8;
    dt_opts.pages_per_run = 2;
    auto table = storage::DiskTable::Create(
        dir_path + "/t" + std::to_string(n) + ".db", SweepRowType(tf_), 0,
        dt_opts);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE((*table)->InsertRows(SweepRows(n)).ok());
    RelNodePtr disk = ScanOf(*table);
    const std::string label = "disk n=" + std::to_string(n);

    for (const std::vector<int>& keys :
         {std::vector<int>{}, std::vector<int>{1}, std::vector<int>{1, 2}}) {
      ExpectThreadSweepParity(AggregateOf(disk, keys),
                              label + " agg keys=" +
                                  std::to_string(keys.size()),
                              {4}, {7, 1024});
    }
    for (JoinType jt : {JoinType::kInner, JoinType::kLeft, JoinType::kFull,
                        JoinType::kAnti}) {
      ExpectThreadSweepParity(JoinOnK(disk, ScanLeaf(300), jt),
                              label + " join " + JoinTypeName(jt), {4},
                              {7, 1024});
    }
    EXPECT_EQ((*table)->buffer_pool().pinned_frames(), 0u) << label;
  }
  std::error_code ec;
  std::filesystem::remove_all(dir_path, ec);
}

// A table with neither a columnar decomposition nor scan units declines the
// parallel executor; its fragments run on the serial operators at any
// thread count.
TEST_F(ParallelSweepTest, ScanOnlyTableRunsSerially) {
  RelNodePtr scan = ScanOf(
      std::make_shared<testing::ScanOnlyTable>(SweepRowType(tf_), SweepRows(5000)));
  ExpectThreadSweepParity(scan, "scan-only scan", {4}, {7, 1024});
  ExpectThreadSweepParity(AggregateOf(scan, {1, 2}), "scan-only agg", {4},
                          {7, 1024});
  ExpectThreadSweepParity(JoinOnK(scan, ScanLeaf(300), JoinType::kLeft),
                          "scan-only join", {4}, {7, 1024});
  // Declined fragments keep the serial engine's exact row order.
  auto serial = Drain(scan, 1, 1024);
  auto parallel = Drain(scan, 4, 1024);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_EQ(parallel.value().size(), serial.value().size());
  for (size_t i = 0; i < serial.value().size(); ++i) {
    ASSERT_EQ(RowToString(parallel.value()[i]), RowToString(serial.value()[i]))
        << "row " << i;
  }
}

// Stream tables are time-ordered by contract, so their scans must never go
// morsel-parallel: whatever the thread count, events come back in exact
// arrival order.
TEST_F(ParallelSweepTest, StreamScansStaySerialAndOrdered) {
  auto int_t = tf_.CreateSqlType(SqlTypeName::kInteger);
  auto row_type = tf_.CreateStructType({"rowtime", "amount"}, {int_t, int_t});
  auto stream = std::make_shared<stream::StreamTable>(row_type, 0);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(stream->Append({Value::Int(i), Value::Int(i % 50)}).ok());
  }
  auto logical = LogicalTableScan::Create(stream, {"events"},
                                          Convention::Enumerable(), tf_);
  auto scan = EnumerableTableScan::Create(
      *static_cast<const TableScan*>(logical.get()));
  for (size_t threads : {size_t{4}, size_t{8}}) {
    auto got = Drain(scan, threads, 1024);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value().size(), 20000u);
    for (size_t i = 0; i < got.value().size(); ++i) {
      ASSERT_EQ(got.value()[i][0].AsInt(), static_cast<int64_t>(i))
          << "rowtime out of arrival order at " << i
          << " with threads=" << threads;
    }
  }
}

// ----------------------- serial-path differential -------------------------

// num_threads = 1 must take the exact serial code path: identical rows in
// identical order to the default options and to the materializing Execute().
TEST_F(ParallelSweepTest, SingleThreadIsByteIdenticalToSerial) {
  RelNodePtr node = FilterProjectPipeline(5000, 4000);
  auto defaults = Drain(node, 1, 1024);
  ASSERT_TRUE(defaults.ok());
  ExecOptions explicit_one;
  explicit_one.batch_size = 1024;
  explicit_one.num_threads = 1;
  auto puller = node->ExecuteBatched(explicit_one);
  ASSERT_TRUE(puller.ok());
  auto one_thread = DrainBatches(puller.value());
  ASSERT_TRUE(one_thread.ok());
  ASSERT_EQ(one_thread.value().size(), defaults.value().size());
  for (size_t i = 0; i < one_thread.value().size(); ++i) {
    EXPECT_EQ(RowToString(one_thread.value()[i]),
              RowToString(defaults.value()[i]))
        << "row " << i;
  }
  auto materialized = node->Execute();
  ASSERT_TRUE(materialized.ok());
  ASSERT_EQ(materialized.value().size(), defaults.value().size());
  for (size_t i = 0; i < materialized.value().size(); ++i) {
    EXPECT_EQ(RowToString(materialized.value()[i]),
              RowToString(defaults.value()[i]))
        << "row " << i;
  }
}

// --------------------------- error propagation ----------------------------

class ParallelErrorTest : public ParallelSweepTest {
 protected:
  /// 100 / (id - 500): evaluates fine everywhere except id = 500, so only
  /// one morsel in the middle of the scan trips the error.
  RexNodePtr PoisonExpr(const RelDataTypePtr& rt) {
    auto shifted = rex_.MakeCall(OpKind::kMinus,
                                 {Field(rt, 0), rex_.MakeIntLiteral(500)});
    EXPECT_TRUE(shifted.ok());
    auto div = rex_.MakeCall(OpKind::kDivide,
                             {rex_.MakeIntLiteral(100), shifted.value()});
    EXPECT_TRUE(div.ok());
    return div.value();
  }
};

TEST_F(ParallelErrorTest, FailingMorselCancelsPipeline) {
  RelNodePtr leaf = ScanLeaf(20000);
  const RelDataTypePtr& rt = leaf->row_type();
  auto cond = rex_.MakeCall(OpKind::kGreaterThan,
                            {PoisonExpr(rt), rex_.MakeIntLiteral(0)});
  ASSERT_TRUE(cond.ok());
  RelNodePtr filter = EnumerableFilter::Create(leaf, cond.value());
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    auto result = Drain(filter, threads, 1024);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kRuntimeError);
    EXPECT_NE(result.status().message().find("division by zero"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST_F(ParallelErrorTest, FailingMorselCancelsPartitionedAggregate) {
  RelNodePtr leaf = ScanLeaf(20000);
  const RelDataTypePtr& rt = leaf->row_type();
  // SUM over the VARCHAR column errors as soon as a worker feeds it a
  // non-NULL string.
  AggregateCall c;
  c.kind = AggKind::kSum;
  c.args = {2};
  c.name = "bad";
  auto row_type = DeriveAggregateRowType(rt, {}, {c}, tf_);
  auto agg = EnumerableAggregate::Create(leaf, {}, {c}, row_type);
  auto result = Drain(agg, 4, 1024);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kRuntimeError);
}

TEST_F(ParallelErrorTest, FailingProbeStageCancelsPartitionedJoin) {
  // The poison filter sits in the probe-side pipeline, so the error
  // surfaces from inside a probe worker mid-join.
  RelNodePtr leaf = ScanLeaf(20000);
  const RelDataTypePtr& rt = leaf->row_type();
  auto cond = rex_.MakeCall(OpKind::kGreaterThan,
                            {PoisonExpr(rt), rex_.MakeIntLiteral(-1000)});
  ASSERT_TRUE(cond.ok());
  RelNodePtr left = EnumerableFilter::Create(leaf, cond.value());
  RelNodePtr right = ScanLeaf(100);
  auto equi = rex_.MakeEquals(
      Field(rt, 1), rex_.MakeInputRef(static_cast<int>(rt->fields().size()) + 1,
                                      rt->fields()[1].type));
  auto row_type = DeriveJoinRowType(rt, right->row_type(), JoinType::kInner,
                                    tf_);
  auto join = EnumerableHashJoin::Create(left, right, equi, JoinType::kInner,
                                         row_type);
  auto result = Drain(join, 4, 1024);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kRuntimeError);
  EXPECT_NE(result.status().message().find("division by zero"),
            std::string::npos);
}

// Abandoning a parallel stream mid-flight (LIMIT-style) must cancel and
// join the workers without deadlock or error.
TEST_F(ParallelSweepTest, AbandonedStreamShutsDownCleanly) {
  RelNodePtr node = FilterProjectPipeline(50000, 45000);
  ExecOptions opts;
  opts.batch_size = 64;
  opts.num_threads = 4;
  auto puller = node->ExecuteBatched(opts);
  ASSERT_TRUE(puller.ok());
  auto first = (puller.value())();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().empty());
  // Dropping the puller here must tear the fragment down.
}

// ------------------------------ SQL level ---------------------------------

/// The shared test schema plus `big` (5000 sweep rows): its fragments span
/// several morsels and run in parallel, while the small test tables fit in
/// one morsel and stay serial.
SchemaPtr SchemaWithBigTable() {
  SchemaPtr schema = testing::MakeTestSchema();
  TypeFactory tf;
  schema->AddTable("big", std::make_shared<MemTable>(SweepRowType(tf),
                                                     SweepRows(5000)));
  return schema;
}

QueryResult MustQuery(Connection* conn, const std::string& sql) {
  auto result = conn->Query(sql);
  EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  return result.ok() ? std::move(result).value() : QueryResult{};
}

TEST(ParallelSqlTest, QueriesMatchSerialAcrossThreadCounts) {
  const std::vector<std::string> unordered_queries = {
      "SELECT * FROM sales",
      "SELECT saleid, units FROM sales WHERE discount IS NOT NULL",
      "SELECT productId, COUNT(*) AS c, SUM(units) AS u FROM sales "
      "GROUP BY productId",
      "SELECT products.name, COUNT(*) AS c FROM sales "
      "JOIN products USING (productId) GROUP BY products.name",
      "SELECT COUNT(*) AS c, SUM(units) AS s FROM sales",
      "SELECT id, k FROM big WHERE k IS NOT NULL",
      "SELECT k, COUNT(*) AS c, SUM(d) AS sd FROM big GROUP BY k",
      "SELECT big.id, products.name FROM big "
      "JOIN products ON big.k = products.productId WHERE big.id < 3000",
  };
  // ORDER BY over a unique key: results must match in exact order even
  // though the fragment below the sort ran in parallel.
  const std::vector<std::string> ordered_queries = {
      "SELECT saleid, units FROM sales WHERE units > 1 ORDER BY saleid",
      "SELECT deptno, COUNT(*) AS c FROM emps GROUP BY deptno ORDER BY deptno",
      "SELECT id, s, id * 2 + k AS m FROM big "
      "WHERE id >= 100 AND id < 4000 AND s = 's3' AND k + d > 1 ORDER BY id",
  };
  std::vector<std::vector<std::string>> unordered_base;
  std::vector<std::vector<std::string>> ordered_base;
  {
    Connection::Config config;
    config.schema = SchemaWithBigTable();
    Connection conn(std::move(config));
    for (const auto& sql : unordered_queries) {
      unordered_base.push_back(SortedStrings(MustQuery(&conn, sql).rows));
    }
    for (const auto& sql : ordered_queries) {
      std::vector<std::string> rows;
      for (const Row& row : MustQuery(&conn, sql).rows) {
        rows.push_back(RowToString(row));
      }
      ordered_base.push_back(std::move(rows));
    }
  }
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    Connection::Config config;
    config.schema = SchemaWithBigTable();
    config.exec_options.num_threads = threads;
    Connection conn(std::move(config));
    for (size_t q = 0; q < unordered_queries.size(); ++q) {
      EXPECT_EQ(SortedStrings(MustQuery(&conn, unordered_queries[q]).rows),
                unordered_base[q])
          << unordered_queries[q] << " threads=" << threads;
    }
    for (size_t q = 0; q < ordered_queries.size(); ++q) {
      std::vector<std::string> rows;
      for (const Row& row : MustQuery(&conn, ordered_queries[q]).rows) {
        rows.push_back(RowToString(row));
      }
      EXPECT_EQ(rows, ordered_base[q])
          << ordered_queries[q] << " threads=" << threads;
    }
  }
}

TEST(ParallelSqlTest, RuntimeErrorSurfacesThroughConnection) {
  Connection::Config config;
  config.schema = SchemaWithBigTable();
  config.exec_options.num_threads = 4;
  Connection conn(std::move(config));
  auto result = conn.Query("SELECT 100 / (id - 3) FROM big");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kRuntimeError);
}

}  // namespace
}  // namespace calcite
