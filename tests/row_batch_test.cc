// Unit tests of the RowBatch runtime primitives (src/exec/row_batch.h):
// the chunking/slicing pullers at the boundary cardinalities the batch
// sweep exposed as untested (batch_size exceeding the row count, zero
// rows, exact multiples) and the leaf-scan predicate pushdown helpers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/row_batch.h"
#include "type/value.h"

namespace calcite {
namespace {

std::vector<Row> MakeRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    i % 3 == 0 ? Value::Null()
                               : Value::String("v" + std::to_string(i))});
  }
  return rows;
}

/// Drains `puller` by hand, recording every batch size, and verifies the
/// end-of-stream contract: no mid-stream empty batch, every batch within
/// the cap, and pulls after the end keep returning empty.
std::vector<Row> DrainChecked(const RowBatchPuller& puller, size_t batch_size,
                              std::vector<size_t>* batch_sizes = nullptr) {
  std::vector<Row> out;
  for (;;) {
    auto batch = puller();
    EXPECT_TRUE(batch.ok());
    if (batch.value().empty()) break;
    EXPECT_LE(batch.value().size(), batch_size);
    if (batch_sizes != nullptr) batch_sizes->push_back(batch.value().size());
    for (Row& row : batch.value()) out.push_back(std::move(row));
  }
  // The end of the stream is stable: further pulls stay empty.
  for (int i = 0; i < 3; ++i) {
    auto again = puller();
    EXPECT_TRUE(again.ok());
    if (again.ok()) {
      EXPECT_TRUE(again.value().empty());
    }
  }
  return out;
}

void ExpectRowsEqual(const std::vector<Row>& got,
                     const std::vector<Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(RowToString(got[i]), RowToString(want[i])) << "row " << i;
  }
}

TEST(ChunkRowsTest, BatchSizeExceedsRowCount) {
  std::vector<size_t> sizes;
  auto out = DrainChecked(ChunkRows(MakeRows(5), 100), 100, &sizes);
  ExpectRowsEqual(out, MakeRows(5));
  EXPECT_EQ(sizes, std::vector<size_t>({5}));
}

TEST(ChunkRowsTest, ZeroRows) {
  auto out = DrainChecked(ChunkRows({}, 4), 4);
  EXPECT_TRUE(out.empty());
}

TEST(ChunkRowsTest, ExactMultipleAndRemainder) {
  {
    std::vector<size_t> sizes;
    auto out = DrainChecked(ChunkRows(MakeRows(8), 4), 4, &sizes);
    ExpectRowsEqual(out, MakeRows(8));
    EXPECT_EQ(sizes, std::vector<size_t>({4, 4}));
  }
  {
    std::vector<size_t> sizes;
    auto out = DrainChecked(ChunkRows(MakeRows(9), 4), 4, &sizes);
    ExpectRowsEqual(out, MakeRows(9));
    EXPECT_EQ(sizes, std::vector<size_t>({4, 4, 1}));
  }
}

TEST(ChunkRowsTest, ZeroBatchSizeClampsToOne) {
  std::vector<size_t> sizes;
  auto out = DrainChecked(ChunkRows(MakeRows(3), 0), 1, &sizes);
  ExpectRowsEqual(out, MakeRows(3));
  EXPECT_EQ(sizes, std::vector<size_t>({1, 1, 1}));
}

TEST(SliceRowsTest, BatchSizeExceedsRowCount) {
  std::vector<Row> stored = MakeRows(5);
  std::vector<size_t> sizes;
  auto out = DrainChecked(SliceRows(stored, 1024), 1024, &sizes);
  ExpectRowsEqual(out, stored);
  EXPECT_EQ(sizes, std::vector<size_t>({5}));
}

TEST(SliceRowsTest, ZeroRows) {
  std::vector<Row> stored;
  auto out = DrainChecked(SliceRows(stored, 16), 16);
  EXPECT_TRUE(out.empty());
}

TEST(SliceRowsTest, ExactMultipleLeavesNoTrailingPartialBatch) {
  std::vector<Row> stored = MakeRows(6);
  std::vector<size_t> sizes;
  auto out = DrainChecked(SliceRows(stored, 3), 3, &sizes);
  ExpectRowsEqual(out, stored);
  EXPECT_EQ(sizes, std::vector<size_t>({3, 3}));
  // The stored rows are untouched (SliceRows copies; it never moves).
  ExpectRowsEqual(stored, MakeRows(6));
}

TEST(DrainBatchesTest, RoundTripsThroughChunks) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}}) {
    auto rows = DrainBatches(ChunkRows(MakeRows(n), 4));
    ASSERT_TRUE(rows.ok());
    ExpectRowsEqual(rows.value(), MakeRows(n));
  }
}

TEST(ScanPredicateTest, ComparisonAndNullSemantics) {
  Row row = {Value::Int(7), Value::Null(), Value::String("abc")};
  ScanPredicate gt;
  gt.kind = ScanPredicate::Kind::kGreaterThan;
  gt.column = 0;
  gt.literal = Value::Int(5);
  EXPECT_TRUE(gt.Matches(row));
  gt.literal = Value::Int(7);
  EXPECT_FALSE(gt.Matches(row));

  // NULL on either side of a comparison never passes (SQL UNKNOWN).
  ScanPredicate cmp_null_col = gt;
  cmp_null_col.column = 1;
  EXPECT_FALSE(cmp_null_col.Matches(row));
  ScanPredicate cmp_null_lit = gt;
  cmp_null_lit.literal = Value::Null();
  EXPECT_FALSE(cmp_null_lit.Matches(row));

  // ... but the NULL tests see it.
  ScanPredicate is_null;
  is_null.kind = ScanPredicate::Kind::kIsNull;
  is_null.column = 1;
  EXPECT_TRUE(is_null.Matches(row));
  is_null.kind = ScanPredicate::Kind::kIsNotNull;
  EXPECT_FALSE(is_null.Matches(row));

  // String comparison uses the same Value::Compare ordering as the
  // interpreter.
  ScanPredicate str_lt;
  str_lt.kind = ScanPredicate::Kind::kLessThan;
  str_lt.column = 2;
  str_lt.literal = Value::String("b");
  EXPECT_TRUE(str_lt.Matches(row));

  // Out-of-range columns never match (malformed row defense).
  ScanPredicate oob = gt;
  oob.column = 9;
  EXPECT_FALSE(oob.Matches(row));
}

TEST(FilterSliceRowsTest, FiltersBeforeBatching) {
  std::vector<Row> stored = MakeRows(10);
  ScanPredicateList preds;
  {
    ScanPredicate p;
    p.kind = ScanPredicate::Kind::kGreaterThanOrEqual;
    p.column = 0;
    p.literal = Value::Int(4);
    preds.push_back(p);
    p.kind = ScanPredicate::Kind::kIsNotNull;
    p.column = 1;
    preds.push_back(p);
  }
  // Expect rows 4..9 minus the NULL-second-column rows (multiples of 3).
  std::vector<Row> want;
  for (size_t i = 4; i < 10; ++i) {
    if (i % 3 != 0) want.push_back(stored[i]);
  }
  std::vector<size_t> sizes;
  auto out = DrainChecked(FilterSliceRows(stored, 3, preds), 3, &sizes);
  ExpectRowsEqual(out, want);
  // A fully-filtered stretch never surfaces as a mid-stream empty batch.
  for (size_t s : sizes) EXPECT_GT(s, 0u);
}

TEST(FilterSliceRowsTest, AllRowsFilteredYieldsCleanEnd) {
  std::vector<Row> stored = MakeRows(7);
  ScanPredicateList preds;
  ScanPredicate p;
  p.kind = ScanPredicate::Kind::kLessThan;
  p.column = 0;
  p.literal = Value::Int(0);
  preds.push_back(p);
  auto out = DrainChecked(FilterSliceRows(stored, 4, preds), 4);
  EXPECT_TRUE(out.empty());
}

TEST(FilterSliceRowsTest, EmptyPredicateListDegeneratesToSlice) {
  std::vector<Row> stored = MakeRows(5);
  auto out = DrainChecked(FilterSliceRows(stored, 2, {}), 2);
  ExpectRowsEqual(out, stored);
}

}  // namespace
}  // namespace calcite
