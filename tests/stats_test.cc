// Tests of the ANALYZE statistics pipeline (schema/analyze.h), the
// histogram-backed selectivity estimator (schema/table_stats.h), the
// stats-backed metadata provider (metadata/table_stats_provider.h), the
// unified ScanSpec scan surface (MemTable's and the default
// Table::OpenScan, with their decorators), and the DiskTable side: stats
// catalog persistence across reopen and cost-based access-path selection
// under AccessPath::kAuto.
//
// Distribution tests use seeded generators, so the asserted accuracy
// bounds are deterministic, not flaky tolerances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "metadata/metadata.h"
#include "rel/core.h"
#include "rex/rex_builder.h"
#include "schema/analyze.h"
#include "schema/table.h"
#include "schema/table_stats.h"
#include "storage/disk_table.h"
#include "test_schema.h"
#include "type/rel_data_type.h"
#include "type/value.h"

namespace calcite {
namespace {

#define ASSERT_OK(expr)                                 \
  do {                                                  \
    const ::calcite::Status _st = (expr);               \
    ASSERT_TRUE(_st.ok()) << _st.message();             \
  } while (0)

// Row type shared by the MemTable tests: an int64 key, a nullable double
// measure, and a nullable varchar category.
RelDataTypePtr StatsRowType(const TypeFactory& tf) {
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto dbl_null = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
  auto str_null = tf.CreateSqlType(SqlTypeName::kVarchar, 20, true);
  return tf.CreateStructType({"id", "val", "cat"}, {int_t, dbl_null, str_null});
}

ScanPredicate Pred(ScanPredicate::Kind kind, int column, Value literal) {
  ScanPredicate p;
  p.kind = kind;
  p.column = column;
  p.literal = std::move(literal);
  return p;
}

std::vector<Row> Drain(const RowBatchPuller& puller) {
  std::vector<Row> out;
  for (;;) {
    auto batch = puller();
    EXPECT_TRUE(batch.ok()) << batch.status().message();
    if (!batch.ok() || batch->empty()) break;
    for (Row& row : *batch) out.push_back(std::move(row));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Estimator accuracy: uniform data
// ---------------------------------------------------------------------------

TEST(StatsAnalyzeTest, UniformColumnEstimates) {
  const int64_t kRows = 10000;
  TypeFactory tf;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> uni(0.0, 100.0);
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int(i), Value::Double(uni(rng)),
                    Value::String("c" + std::to_string(i % 7))});
  }
  MemTable table(StatsRowType(tf), std::move(rows));

  auto stats = AnalyzeTable(table);
  ASSERT_OK(stats.status());
  EXPECT_TRUE(stats->analyzed());
  EXPECT_EQ(stats->version, TableStats::kFormatVersion);
  ASSERT_EQ(stats->columns.size(), 3u);
  ASSERT_TRUE(stats->row_count.has_value());
  EXPECT_DOUBLE_EQ(*stats->row_count, static_cast<double>(kRows));

  // Key column: exact extremes, no NULLs, all-distinct NDV within KMV
  // sketch error (~1/sqrt(1024) ~ 3%; assert 15%).
  const ColumnStats& id = stats->columns[0];
  EXPECT_TRUE(id.analyzed);
  EXPECT_EQ(id.min.AsInt(), 0);
  EXPECT_EQ(id.max.AsInt(), kRows - 1);
  EXPECT_DOUBLE_EQ(id.null_fraction, 0.0);
  EXPECT_NEAR(id.ndv, static_cast<double>(kRows), 0.15 * kRows);
  EXPECT_FALSE(id.histogram.empty());

  // Range selectivity on the uniform key: $0 < 2500 selects 25%.
  auto lt = EstimatePredicateSelectivity(
      id, Pred(ScanPredicate::Kind::kLessThan, 0, Value::Int(2500)));
  ASSERT_TRUE(lt.has_value());
  EXPECT_NEAR(*lt, 0.25, 0.03);

  // Equality on an all-distinct column: ~1/kRows, not the 0.15 default.
  auto eq = EstimatePredicateSelectivity(
      id, Pred(ScanPredicate::Kind::kEquals, 0, Value::Int(1234)));
  ASSERT_TRUE(eq.has_value());
  EXPECT_GT(*eq, 0.5 / kRows);
  EXPECT_LT(*eq, 5.0 / kRows);

  // Equality outside [min, max] is provably empty.
  auto out = EstimatePredicateSelectivity(
      id, Pred(ScanPredicate::Kind::kEquals, 0, Value::Int(kRows * 2)));
  ASSERT_TRUE(out.has_value());
  EXPECT_DOUBLE_EQ(*out, 0.0);

  // The uniform double measure: $1 < 25.0 selects ~25%.
  const ColumnStats& val = stats->columns[1];
  auto vlt = EstimatePredicateSelectivity(
      val, Pred(ScanPredicate::Kind::kLessThan, 1, Value::Double(25.0)));
  ASSERT_TRUE(vlt.has_value());
  EXPECT_NEAR(*vlt, 0.25, 0.03);

  // Low-cardinality varchar column: NDV counted exactly, no histogram.
  const ColumnStats& cat = stats->columns[2];
  EXPECT_DOUBLE_EQ(cat.ndv, 7.0);
  EXPECT_TRUE(cat.histogram.empty());
  EXPECT_EQ(cat.min.AsString(), "c0");
  EXPECT_EQ(cat.max.AsString(), "c6");
}

// ---------------------------------------------------------------------------
// Estimator accuracy: skewed data
// ---------------------------------------------------------------------------

TEST(StatsAnalyzeTest, SkewedColumnHistogramBeatsUniformAssumption) {
  // v = 100 * u^4 with u uniform in [0,1): heavily right-skewed, mass near
  // zero. True P(v < t) = (t/100)^(1/4).
  const int64_t kRows = 20000;
  TypeFactory tf;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    double u = uni(rng);
    rows.push_back({Value::Int(i), Value::Double(100.0 * u * u * u * u),
                    Value::Null()});
  }
  MemTable table(StatsRowType(tf), std::move(rows));

  auto stats = AnalyzeTable(table);
  ASSERT_OK(stats.status());
  const ColumnStats& val = stats->columns[1];
  ASSERT_FALSE(val.histogram.empty());

  // P(v < 6.25) = 0.5 — a uniform assumption over [0, 100] would say ~6%.
  auto median = EstimatePredicateSelectivity(
      val, Pred(ScanPredicate::Kind::kLessThan, 1, Value::Double(6.25)));
  ASSERT_TRUE(median.has_value());
  EXPECT_NEAR(*median, 0.5, 0.06);

  // P(v < 31.6) ~ 0.75.
  auto q3 = EstimatePredicateSelectivity(
      val, Pred(ScanPredicate::Kind::kLessThan, 1, Value::Double(31.64)));
  ASSERT_TRUE(q3.has_value());
  EXPECT_NEAR(*q3, 0.75, 0.06);

  // And the complementary range: P(v > 6.25) ~ 0.5.
  auto gt = EstimatePredicateSelectivity(
      val, Pred(ScanPredicate::Kind::kGreaterThan, 1, Value::Double(6.25)));
  ASSERT_TRUE(gt.has_value());
  EXPECT_NEAR(*gt, 0.5, 0.06);
}

// ---------------------------------------------------------------------------
// Estimator accuracy: NULL-heavy data
// ---------------------------------------------------------------------------

TEST(StatsAnalyzeTest, NullHeavyColumnEstimates) {
  const int64_t kRows = 10000;
  TypeFactory tf;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Row> rows;
  rows.reserve(kRows);
  int64_t nulls = 0;
  for (int64_t i = 0; i < kRows; ++i) {
    bool is_null = uni(rng) < 0.7;
    nulls += is_null ? 1 : 0;
    rows.push_back({Value::Int(i),
                    is_null ? Value::Null() : Value::Double(uni(rng) * 10.0),
                    Value::Null()});
  }
  MemTable table(StatsRowType(tf), std::move(rows));

  auto stats = AnalyzeTable(table);
  ASSERT_OK(stats.status());
  const ColumnStats& val = stats->columns[1];
  // Full scan: the NULL fraction is exact.
  EXPECT_DOUBLE_EQ(val.null_fraction,
                   static_cast<double>(nulls) / static_cast<double>(kRows));

  auto is_null = EstimatePredicateSelectivity(
      val, Pred(ScanPredicate::Kind::kIsNull, 1, Value::Null()));
  ASSERT_TRUE(is_null.has_value());
  EXPECT_NEAR(*is_null, 0.7, 0.02);

  auto not_null = EstimatePredicateSelectivity(
      val, Pred(ScanPredicate::Kind::kIsNotNull, 1, Value::Null()));
  ASSERT_TRUE(not_null.has_value());
  EXPECT_NEAR(*not_null, 0.3, 0.02);

  // Comparisons never match NULL rows: $1 < 5.0 matches ~half of the
  // non-NULL 30%, i.e. ~15% of all rows.
  auto lt = EstimatePredicateSelectivity(
      val, Pred(ScanPredicate::Kind::kLessThan, 1, Value::Double(5.0)));
  ASSERT_TRUE(lt.has_value());
  EXPECT_NEAR(*lt, 0.15, 0.03);

  // A comparison against a NULL literal never passes.
  auto null_lit = EstimatePredicateSelectivity(
      val, Pred(ScanPredicate::Kind::kLessThan, 1, Value::Null()));
  ASSERT_TRUE(null_lit.has_value());
  EXPECT_DOUBLE_EQ(*null_lit, 0.0);

  // An all-NULL column: extremes stay NULL, NDV 0, IS NULL -> 1.
  const ColumnStats& cat = stats->columns[2];
  EXPECT_TRUE(cat.min.IsNull());
  EXPECT_TRUE(cat.max.IsNull());
  EXPECT_DOUBLE_EQ(cat.null_fraction, 1.0);
  EXPECT_DOUBLE_EQ(cat.ndv, 0.0);
}

// ---------------------------------------------------------------------------
// Sampled ANALYZE
// ---------------------------------------------------------------------------

TEST(StatsAnalyzeTest, SampledAnalyzeScalesEstimates) {
  const int64_t kRows = 20000;
  TypeFactory tf;
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int(i),
                    uni(rng) < 0.25 ? Value::Null()
                                    : Value::Double(uni(rng) * 50.0),
                    Value::String("c" + std::to_string(i % 11))});
  }
  MemTable table(StatsRowType(tf), std::move(rows));

  AnalyzeOptions opts;
  opts.sample_fraction = 0.1;
  auto stats = AnalyzeTable(table, opts);
  ASSERT_OK(stats.status());
  ASSERT_TRUE(stats->row_count.has_value());
  // Bernoulli(0.1) over 20k rows: the scaled row count lands within a few
  // percent; assert a generous 20%.
  EXPECT_NEAR(*stats->row_count, static_cast<double>(kRows), 0.2 * kRows);

  const ColumnStats& val = stats->columns[1];
  EXPECT_NEAR(val.null_fraction, 0.25, 0.05);
  auto lt = EstimatePredicateSelectivity(
      val, Pred(ScanPredicate::Kind::kLessThan, 1, Value::Double(25.0)));
  ASSERT_TRUE(lt.has_value());
  EXPECT_NEAR(*lt, 0.375, 0.05);  // half of the non-NULL 75%

  // The all-distinct key column: NDV scaled back to the population within
  // 30% (sampling multiplies the sketch error).
  EXPECT_NEAR(stats->columns[0].ndv, static_cast<double>(kRows), 0.3 * kRows);

  // Low-cardinality column: every distinct value shows up in a 10% sample,
  // and the birthday-style inversion recognizes saturation.
  EXPECT_NEAR(stats->columns[2].ndv, 11.0, 2.0);
}

// ---------------------------------------------------------------------------
// ScanSpec decorators through MemTable::OpenScan and the default
// Table::OpenScan
// ---------------------------------------------------------------------------

/// The same rows behind MemTable's OpenScan and the default one, named.
std::vector<std::pair<std::string, TablePtr>> BothScanPaths(
    const TypeFactory& tf, const std::vector<Row>& rows) {
  return {{"MemTable", std::make_shared<MemTable>(StatsRowType(tf), rows)},
          {"Scan() only",
           std::make_shared<testing::ScanOnlyTable>(StatsRowType(tf), rows)}};
}

TEST(ScanSpecTest, ProjectionAndPredicates) {
  const int64_t kRows = 1000;
  TypeFactory tf;
  std::vector<Row> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int(i), Value::Double(i * 0.5),
                    Value::String("c" + std::to_string(i % 3))});
  }
  for (const auto& [name, table] : BothScanPaths(tf, rows)) {
    SCOPED_TRACE(name);
    ScanSpec spec;
    spec.batch_size = 128;
    spec.predicates = {
        Pred(ScanPredicate::Kind::kLessThan, 0, Value::Int(100))};
    spec.projection = {2, 0};
    auto puller = table->OpenScan(spec);
    ASSERT_OK(puller.status());
    std::vector<Row> got = Drain(*puller);
    ASSERT_EQ(got.size(), 100u);
    for (const Row& row : got) {
      ASSERT_EQ(row.size(), 2u);  // projected down to {cat, id}
      EXPECT_TRUE(row[0].is_string());
      EXPECT_LT(row[1].AsInt(), 100);
    }
  }
}

TEST(ScanSpecTest, SamplingIsDeterministicAndBounded) {
  const int64_t kRows = 10000;
  TypeFactory tf;
  std::vector<Row> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int(i), Value::Double(0.0), Value::Null()});
  }
  for (const auto& [name, table] : BothScanPaths(tf, rows)) {
    SCOPED_TRACE(name);
    ScanSpec spec;
    spec.sample_fraction = 0.5;
    auto a = table->OpenScan(spec);
    ASSERT_OK(a.status());
    std::vector<Row> first = Drain(*a);
    EXPECT_NEAR(static_cast<double>(first.size()), 5000.0, 500.0);

    // Same seed -> identical sample; different seed -> (almost surely) not.
    auto b = table->OpenScan(spec);
    ASSERT_OK(b.status());
    std::vector<Row> second = Drain(*b);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i][0].AsInt(), second[i][0].AsInt());
    }

    spec.sample_seed = 0xBADC0FFEEull;
    auto c = table->OpenScan(spec);
    ASSERT_OK(c.status());
    std::vector<Row> third = Drain(*c);
    bool identical = third.size() == first.size();
    if (identical) {
      for (size_t i = 0; i < first.size(); ++i) {
        if (first[i][0].AsInt() != third[i][0].AsInt()) {
          identical = false;
          break;
        }
      }
    }
    EXPECT_FALSE(identical);
  }
}

TEST(ScanSpecTest, UnitRangeRequiresPagedSurface) {
  TypeFactory tf;
  for (const auto& [name, table] :
       BothScanPaths(tf, {{Value::Int(1), Value::Null(), Value::Null()}})) {
    SCOPED_TRACE(name);
    ScanSpec spec;
    spec.unit_begin = 0;
    spec.unit_end = 1;
    auto puller = table->OpenScan(spec);
    ASSERT_FALSE(puller.ok());  // neither table exposes scan units
    EXPECT_EQ(puller.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Stats-backed metadata provider
// ---------------------------------------------------------------------------

TEST(TableStatsProviderTest, SelectivityFromHistograms) {
  const int64_t kRows = 10000;
  TypeFactory tf;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> uni(0.0, 100.0);
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int(i), Value::Double(uni(rng)),
                    Value::String("c" + std::to_string(i % 7))});
  }
  auto table = std::make_shared<MemTable>(StatsRowType(tf), std::move(rows));
  auto stats = AnalyzeTable(*table);
  ASSERT_OK(stats.status());
  table->set_statistic(*stats);

  RelNodePtr scan =
      LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf);
  RelDataTypePtr row_type = table->GetRowType(tf);
  RexBuilder b(tf);

  MetadataQuery mq;

  // $1 < 25.0: the histogram says ~0.25; the default guess would be 0.5.
  auto lt = b.MakeCall(OpKind::kLessThan, {b.MakeInputRef(row_type, 1),
                                           b.MakeDoubleLiteral(25.0)});
  ASSERT_OK(lt.status());
  EXPECT_NEAR(mq.Selectivity(scan, *lt), 0.25, 0.03);

  // Equality on the all-distinct key: ~1e-4, not the 0.15 default.
  auto eq = b.MakeCall(OpKind::kEquals, {b.MakeInputRef(row_type, 0),
                                         b.MakeIntLiteral(4242)});
  ASSERT_OK(eq.status());
  EXPECT_LT(mq.Selectivity(scan, *eq), 0.01);

  // Conjunction: $0 < 1000 (0.1) AND $1 < 25.0 (0.25) -> ~0.025 under
  // independence.
  auto key_lt = b.MakeCall(OpKind::kLessThan, {b.MakeInputRef(row_type, 0),
                                               b.MakeIntLiteral(1000)});
  ASSERT_OK(key_lt.status());
  RexNodePtr conj = b.MakeAnd({*key_lt, *lt});
  double sel = mq.Selectivity(scan, conj);
  EXPECT_GT(sel, 0.012);
  EXPECT_LT(sel, 0.04);

  // The same scan shape without stats falls back to the fixed guesses.
  auto bare = std::make_shared<MemTable>(StatsRowType(tf), std::vector<Row>{});
  RelNodePtr bare_scan =
      LogicalTableScan::Create(bare, {"u"}, Convention::Enumerable(), tf);
  EXPECT_DOUBLE_EQ(mq.Selectivity(bare_scan, *lt), 0.5);
  EXPECT_DOUBLE_EQ(mq.Selectivity(bare_scan, *eq), 0.15);
}

TEST(TableStatsProviderTest, NullFractionDrivesIsNullSelectivity) {
  const int64_t kRows = 5000;
  TypeFactory tf;
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int(i),
                    uni(rng) < 0.7 ? Value::Null() : Value::Double(uni(rng)),
                    Value::Null()});
  }
  auto table = std::make_shared<MemTable>(StatsRowType(tf), std::move(rows));
  auto stats = AnalyzeTable(*table);
  ASSERT_OK(stats.status());
  table->set_statistic(*stats);

  RelNodePtr scan =
      LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf);
  RelDataTypePtr row_type = table->GetRowType(tf);
  RexBuilder b(tf);
  MetadataQuery mq;

  auto is_null =
      b.MakeCall(OpKind::kIsNull, {b.MakeInputRef(row_type, 1)});
  ASSERT_OK(is_null.status());
  EXPECT_NEAR(mq.Selectivity(scan, *is_null), 0.7, 0.02);

  auto not_null =
      b.MakeCall(OpKind::kIsNotNull, {b.MakeInputRef(row_type, 1)});
  ASSERT_OK(not_null.status());
  EXPECT_NEAR(mq.Selectivity(scan, *not_null), 0.3, 0.02);
}

// ---------------------------------------------------------------------------
// DiskTable: stats persistence and cost-based access paths
// ---------------------------------------------------------------------------

class DiskStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/calcite_stats_XXXXXX";
    char* dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    dir_ = dir;
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  static std::vector<Row> MakeRows(int64_t n) {
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> uni(0.0, 100.0);
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      rows.push_back({Value::Int(i),
                      i % 4 == 0 ? Value::Null() : Value::Double(uni(rng)),
                      i % 5 == 0 ? Value::Null()
                                 : Value::String("n" + std::to_string(i % 23))});
    }
    return rows;
  }

  std::string dir_;
};

TEST_F(DiskStatsTest, AnalyzePersistsAcrossReopen) {
  TypeFactory tf;
  TableStats before;
  {
    auto table = storage::DiskTable::Create(Path("t.db"), StatsRowType(tf), 0);
    ASSERT_OK(table.status());
    ASSERT_OK((*table)->InsertRows(MakeRows(6000)));
    ASSERT_OK((*table)->Analyze());
    ASSERT_OK((*table)->Flush());
    before = (*table)->stats();
  }
  ASSERT_TRUE(before.analyzed());
  ASSERT_TRUE(before.row_count.has_value());
  EXPECT_DOUBLE_EQ(*before.row_count, 6000.0);

  auto reopened = storage::DiskTable::Open(Path("t.db"), StatsRowType(tf));
  ASSERT_OK(reopened.status());
  const TableStats& after = (*reopened)->stats();

  ASSERT_TRUE(after.analyzed());
  EXPECT_EQ(after.version, before.version);
  ASSERT_TRUE(after.row_count.has_value());
  EXPECT_DOUBLE_EQ(*after.row_count, *before.row_count);
  ASSERT_EQ(after.columns.size(), before.columns.size());
  for (size_t c = 0; c < before.columns.size(); ++c) {
    const ColumnStats& b = before.columns[c];
    const ColumnStats& a = after.columns[c];
    EXPECT_TRUE(a.analyzed);
    EXPECT_TRUE(a.min == b.min) << "col " << c;
    EXPECT_TRUE(a.max == b.max) << "col " << c;
    EXPECT_DOUBLE_EQ(a.null_fraction, b.null_fraction);
    EXPECT_DOUBLE_EQ(a.ndv, b.ndv);
    EXPECT_DOUBLE_EQ(a.histogram.lo, b.histogram.lo);
    EXPECT_DOUBLE_EQ(a.histogram.hi, b.histogram.hi);
    ASSERT_EQ(a.histogram.buckets.size(), b.histogram.buckets.size());
    for (size_t i = 0; i < b.histogram.buckets.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.histogram.buckets[i], b.histogram.buckets[i]);
    }
  }

  // GetStatistic surfaces the ANALYZE columns plus the primary-key facts.
  TableStats surfaced = (*reopened)->GetStatistic();
  EXPECT_TRUE(surfaced.analyzed());
  EXPECT_TRUE(surfaced.IsKey({0}));

  // Re-ANALYZE on the reopened table overwrites the catalog in place.
  ASSERT_OK((*reopened)->Analyze());
  EXPECT_TRUE((*reopened)->stats().analyzed());
}

TEST_F(DiskStatsTest, UnanalyzedTableReadsAsUnanalyzed) {
  TypeFactory tf;
  {
    auto table = storage::DiskTable::Create(Path("t.db"), StatsRowType(tf), 0);
    ASSERT_OK(table.status());
    ASSERT_OK((*table)->InsertRows(MakeRows(100)));
    ASSERT_OK((*table)->Flush());
  }
  auto reopened = storage::DiskTable::Open(Path("t.db"), StatsRowType(tf));
  ASSERT_OK(reopened.status());
  EXPECT_FALSE((*reopened)->stats().analyzed());
  // Declarative facts still surface without ANALYZE.
  TableStats stat = (*reopened)->GetStatistic();
  ASSERT_TRUE(stat.row_count.has_value());
  EXPECT_DOUBLE_EQ(*stat.row_count, 100.0);
}

TEST_F(DiskStatsTest, CostBasedAccessPathSelection) {
  const int64_t kRows = 8000;
  TypeFactory tf;
  storage::DiskTableOptions opts;
  opts.pool_pages = 16;
  auto table =
      storage::DiskTable::Create(Path("t.db"), StatsRowType(tf), 0, opts);
  ASSERT_OK(table.status());
  ASSERT_OK((*table)->InsertRows(MakeRows(kRows)));
  storage::DiskTable& t = **table;

  auto scan_count = [&t](const ScanSpec& spec) -> size_t {
    auto puller = t.OpenScan(spec);
    EXPECT_TRUE(puller.ok()) << puller.status().message();
    if (!puller.ok()) return 0;
    return Drain(*puller).size();
  };

  ScanSpec narrow;  // $0 < 80: 1% of the key range
  narrow.predicates = {Pred(ScanPredicate::Kind::kLessThan, 0, Value::Int(80))};
  ScanSpec wide;  // $0 < 4000: 50%
  wide.predicates = {
      Pred(ScanPredicate::Kind::kLessThan, 0, Value::Int(4000))};

  // Without statistics the legacy rule applies: any derivable range routes
  // to the index, narrow or not.
  EXPECT_EQ(scan_count(narrow), 80u);
  EXPECT_TRUE(t.last_scan_used_index());
  EXPECT_EQ(scan_count(wide), 4000u);
  EXPECT_TRUE(t.last_scan_used_index());

  // With statistics, kAuto is cost-based: index below the break-even
  // fraction, heap above it. Row results are identical either way.
  ASSERT_OK(t.Analyze());
  EXPECT_EQ(scan_count(narrow), 80u);
  EXPECT_TRUE(t.last_scan_used_index());
  EXPECT_EQ(scan_count(wide), 4000u);
  EXPECT_FALSE(t.last_scan_used_index());

  // A predicate that cannot bound the key scans the heap.
  ScanSpec non_key;
  non_key.predicates = {
      Pred(ScanPredicate::Kind::kLessThan, 1, Value::Double(10.0))};
  size_t non_key_rows = scan_count(non_key);
  EXPECT_GT(non_key_rows, 0u);
  EXPECT_FALSE(t.last_scan_used_index());

  // Forced hints override the cost model in both directions.
  wide.access_path = AccessPath::kForceIndex;
  EXPECT_EQ(scan_count(wide), 4000u);
  EXPECT_TRUE(t.last_scan_used_index());
  narrow.access_path = AccessPath::kForceHeap;
  EXPECT_EQ(scan_count(narrow), 80u);
  EXPECT_FALSE(t.last_scan_used_index());
}

TEST_F(DiskStatsTest, UnitRangedOpenScanTilesTheTable) {
  TypeFactory tf;
  storage::DiskTableOptions opts;
  opts.pool_pages = 16;
  opts.pages_per_run = 2;
  auto table =
      storage::DiskTable::Create(Path("t.db"), StatsRowType(tf), 0, opts);
  ASSERT_OK(table.status());
  ASSERT_OK((*table)->InsertRows(MakeRows(3000)));
  storage::DiskTable& t = **table;
  size_t units = t.ScanUnitCount();
  ASSERT_GT(units, 2u);

  // Concatenating per-unit OpenScans reproduces the full scan.
  std::vector<Row> tiled;
  for (size_t u = 0; u < units; ++u) {
    ScanSpec spec;
    spec.unit_begin = u;
    spec.unit_end = u + 1;
    auto puller = t.OpenScan(spec);
    ASSERT_OK(puller.status());
    for (Row& row : Drain(*puller)) tiled.push_back(std::move(row));
  }
  EXPECT_EQ(tiled.size(), 3000u);
  for (size_t i = 0; i < tiled.size(); ++i) {
    EXPECT_EQ(tiled[i][0].AsInt(), static_cast<int64_t>(i));
  }

  // Unit ranges respect pushed predicates, and a begin past the tiling is
  // an error.
  ScanSpec filtered;
  filtered.unit_begin = 0;
  filtered.unit_end = units;
  filtered.predicates = {
      Pred(ScanPredicate::Kind::kGreaterThanOrEqual, 0, Value::Int(2900))};
  auto puller = t.OpenScan(filtered);
  ASSERT_OK(puller.status());
  EXPECT_EQ(Drain(*puller).size(), 100u);

  ScanSpec bad;
  bad.unit_begin = units + 1;
  bad.unit_end = units + 2;
  auto out_of_range = t.OpenScan(bad);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace calcite
