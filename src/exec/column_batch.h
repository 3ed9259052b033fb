#ifndef CALCITE_EXEC_COLUMN_BATCH_H_
#define CALCITE_EXEC_COLUMN_BATCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "exec/arena.h"
#include "exec/row_batch.h"
#include "type/rel_data_type.h"
#include "type/value.h"
#include "util/status.h"

namespace calcite {

/// Physical storage class of a column. The static SQL type decides the
/// physical layout: exact numerics / datetimes map to int64, approximate
/// numerics to double, CHAR/VARCHAR to string spans, BOOLEAN to bytes.
/// Everything else — and any column whose stored values do not match the
/// declared type — is carried as boxed Values (kValue), which every columnar
/// kernel treats as "fall back to row semantics".
enum class PhysType : uint8_t { kInt64, kDouble, kBool, kString, kValue };

/// Physical class for a scalar SQL type.
PhysType PhysTypeForSql(SqlTypeName name);
inline PhysType PhysTypeForRel(const RelDataType& type) {
  return PhysTypeForSql(type.type_name());
}

/// A string cell: an unowned span into the column's character blob (or any
/// storage outliving the batch). Trivially destructible so it can live in an
/// arena.
struct StringRef {
  const char* data = nullptr;
  uint32_t size = 0;

  std::string_view view() const { return std::string_view(data, size); }
};

/// One column of a batch: a typed pointer into storage owned elsewhere (the
/// table's columnar cache, the batch's arena, or the batch's boxed pool)
/// plus an optional null bytemap. `nulls[i] != 0` means row i is SQL NULL;
/// a null `nulls` pointer means no row is NULL. A bytemap (one byte per row)
/// is used instead of a bitmap: random access stays branch-free and the
/// filter/arith loops auto-vectorize without bit extraction.
///
/// Exactly one data pointer (matching `type`) is non-null. For kValue
/// columns the boxed Values carry their own null state and `nulls` is unset.
struct ColumnVector {
  PhysType type = PhysType::kValue;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const uint8_t* b8 = nullptr;  // bool column, 0/1 per row
  const StringRef* str = nullptr;
  const Value* boxed = nullptr;
  const uint8_t* nulls = nullptr;

  bool IsNullAt(size_t i) const {
    if (type == PhysType::kValue) return boxed[i].IsNull();
    return nulls != nullptr && nulls[i] != 0;
  }

  /// Boxes one cell back into a Value (the row/column conversion boundary).
  Value GetValue(size_t i) const;
};

/// A column-major batch: `num_rows` physical rows stored as per-column typed
/// vectors, plus an optional SelectionVector naming the live subset. This is
/// the native currency of the columnar hot path.
///
/// Ownership is shared and shallow: `arena` owns bump-allocated column
/// storage produced by kernels, `boxed_pool` owns boxed Value columns (which
/// cannot live in the arena — they need destructors), and `pins` keeps
/// foreign storage (a table's columnar cache, an upstream batch's owners)
/// alive for zero-copy column views. Copying a ColumnBatch copies pointers
/// and shares ownership; it never copies cell data.
struct ColumnBatch {
  size_t num_rows = 0;
  std::vector<ColumnVector> cols;
  SelectionVector sel;
  bool has_sel = false;

  ArenaPtr arena;
  std::vector<std::shared_ptr<const void>> pins;
  std::vector<std::shared_ptr<std::vector<Value>>> boxed_pool;

  /// End-of-stream marker (same convention as RowBatch pullers: producers
  /// never yield a batch with zero live rows mid-stream).
  bool AtEnd() const { return num_rows == 0; }

  size_t ActiveCount() const { return has_sel ? sel.size() : num_rows; }
  size_t ActiveIndex(size_t k) const { return has_sel ? sel[k] : k; }

  /// Adopts `other`'s storage owners so columns of `other` may be aliased
  /// into this batch without copying.
  void ShareStorage(const ColumnBatch& other);

  /// Boxes one physical row (all columns) back into a Row.
  Row GatherRow(size_t row) const;
};

/// Pull protocol for columnar pipelines; empty batch ends the stream.
using ColumnBatchPuller = std::function<Result<ColumnBatch>()>;

/// Whole-table column-major storage: the decomposition of a table's
/// materialized rows into typed column vectors, built once and cached on the
/// table (see ColumnarCache). String columns hold their character data in a
/// single contiguous blob with StringRef spans pointing into it. A column
/// whose declared type does not match every stored value degrades to a boxed
/// kValue column, preserving exact row-path semantics for oddly-typed data.
struct TableColumns {
  struct Col {
    PhysType type = PhysType::kValue;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<uint8_t> b8;
    std::vector<StringRef> str;
    std::string str_blob;  // character data backing `str`
    std::vector<Value> boxed;
    std::vector<uint8_t> nulls;  // sized num_rows iff any null, else empty
  };

  size_t num_rows = 0;
  std::vector<Col> cols;

  /// Decomposes `rows` (whose shape is described by the struct `row_type`)
  /// into columns. Returns nullptr when the rows cannot be decomposed
  /// (ragged widths) — callers then stay on the row path.
  static std::shared_ptr<const TableColumns> Build(const std::vector<Row>& rows,
                                                   const RelDataType& row_type);

  /// A view of column `col` starting at physical row `offset`.
  ColumnVector View(size_t col, size_t offset) const;
};

using TableColumnsPtr = std::shared_ptr<const TableColumns>;

/// Lazily-built, mutex-protected columnar decomposition cached by a table.
/// Get() builds on first use and returns the shared decomposition afterwards;
/// Invalidate() drops it (tables expose mutable row access for test/bench
/// setup and must invalidate when rows may change). In-flight scans keep the
/// old decomposition alive through their shared_ptr.
class ColumnarCache {
 public:
  TableColumnsPtr Get(const std::vector<Row>& rows,
                      const RelDataTypePtr& row_type) const;
  void Invalidate();

 private:
  mutable std::mutex mu_;
  mutable TableColumnsPtr columns_;
};

/// A zero-copy view batch over rows [begin, begin+count) of a columnar
/// table decomposition. `pin` (usually the owning table) is retained in the
/// batch's pins alongside `columns`.
ColumnBatch SliceTableColumns(const TableColumnsPtr& columns, size_t begin,
                              size_t count, std::shared_ptr<const void> pin);

/// Narrows `sel` (slice-local ascending indexes into `batch`) to the rows
/// matching `pred`, with typed loops over the raw column storage — this is
/// leaf predicate pushdown evaluated before any row materialization. Exactly
/// mirrors ScanPredicate::Matches (NULL on either side of a comparison does
/// not pass). Dense int64/double candidates run a vectorized compare over
/// the whole row range followed by a table-driven bitmask -> selection
/// refill (exec/simd.h); everything else keeps the scalar per-row loop.
void NarrowByScanPredicate(const ScanPredicate& pred, const ColumnBatch& batch,
                           SelectionVector* sel);

/// A lower and an upper pushed bound on the same column, fused into one
/// interval test: the row range `lower.lit (<|<=) col (<|<=) upper.lit`
/// narrows with a single simd::InRange pass per batch instead of two
/// compare+refill rounds. `lower.kind` is kGreaterThan[OrEqual],
/// `upper.kind` is kLessThan[OrEqual], both on `lower.column`, both with
/// non-NULL numeric literals (FuseScanRanges guarantees all of this).
struct FusedScanRange {
  ScanPredicate lower;
  ScanPredicate upper;
};

/// Splits `preds` into fused range pairs and the remainder: each
/// lower-bound comparison pairs greedily with the first later upper-bound
/// comparison on the same column (non-NULL numeric literals only), and
/// every unpaired predicate lands in `rest` in its original order. Legal
/// because pushed predicates form a conjunction of error-free per-row
/// tests, so evaluation order is unobservable.
void FuseScanRanges(ScanPredicateList preds,
                    std::vector<FusedScanRange>* ranges,
                    ScanPredicateList* rest);

/// NarrowByScanPredicate's fused-interval analogue: narrows `sel` to the
/// rows inside the range with one vectorized interval test when the
/// column/literal pairing supports it, falling back to applying the two
/// original bound predicates. Bit-identical to narrowing by `range.lower`
/// then `range.upper` separately.
void NarrowByFusedRange(const FusedScanRange& range, const ColumnBatch& batch,
                        SelectionVector* sel);

/// 64-bit hash of a boxed cell, consistent with the blocked HashColumn
/// kernel below: numerically-equal int64/double values hash identically
/// (cross-representation equality compares as double), NULL hashes to the
/// fixed simd::kNullHash, strings hash their bytes. Composite values fall
/// back to Value::Hash (only ever compared against other boxed cells).
uint64_t HashValue64(const Value& v);

/// Hash of a key tuple: a single-column key hashes exactly as HashValue64
/// of its one cell — the contract that lets typed column fast paths and
/// boxed paths probe the same table — and wider keys fold the per-cell
/// hashes FNV-style with FoldKeyHash, starting from kKeyHashSeed.
inline constexpr uint64_t kKeyHashSeed = 0xcbf29ce484222325ULL;
inline uint64_t FoldKeyHash(uint64_t h, uint64_t cell_hash) {
  return (h ^ cell_hash) * 0x100000001b3ULL;
}

/// Blocked column-at-a-time hashing: hashes the `n` cells of `col` named by
/// sel[0..n) (or rows 0..n-1 when `sel` is null) into out[0..n), agreeing
/// with HashValue64 on every cell including NULLs. int64 columns hash in
/// SIMD lanes; the point for every type is hoisting hashing out of the
/// per-row probe loop into one tight pass.
void HashColumn(const ColumnVector& col, const uint32_t* sel, size_t n,
                uint64_t* out);

/// The key-tuple hash (see kKeyHashSeed) of columns `cols` of `batch`, for
/// the rows sel[0..n) — or rows base..base+n-1 when `sel` is null — into
/// out[0..n), hashed column-at-a-time: a single-column key is one
/// HashColumn pass, wider keys fold one pass per column (`scratch` holds
/// the per-cell hashes).
void HashKeyColumns(const ColumnBatch& batch, const std::vector<int>& cols,
                    const uint32_t* sel, size_t base, size_t n, uint64_t* out,
                    std::vector<uint64_t>* scratch);

/// Pushed predicates prepared for a columnar leaf: bound pairs among them
/// are fused once up front (FuseScanRanges) and applied as single interval
/// tests, the rest as NarrowByScanPredicate loops on raw column storage.
class PushedPredicates {
 public:
  PushedPredicates() = default;
  explicit PushedPredicates(ScanPredicateList predicates);

  bool empty() const { return ranges_.empty() && rest_.empty(); }

  /// Narrows a leaf batch without a selection to the rows passing every
  /// predicate, attaching the selection when some row fails. Returns false
  /// when no row survives.
  bool Apply(ColumnBatch* batch) const;

 private:
  std::vector<FusedScanRange> ranges_;
  ScanPredicateList rest_;
};

/// Columnar leaf scan: yields zero-copy view batches of at most `batch_size`
/// rows over `columns`, applying `predicates` (as PushedPredicates) on raw
/// column storage and attaching the surviving selection to each batch
/// (batches where nothing survives are skipped, never yielded empty). `pin`
/// keeps the owning table alive while pulling.
ColumnBatchPuller ScanTableColumns(TableColumnsPtr columns, size_t batch_size,
                                   ScanPredicateList predicates,
                                   std::shared_ptr<const void> pin);

/// Row index meaning "a NULL cell" in AppendGatheredColumn's index list.
inline constexpr uint32_t kNullRow = 0xffffffffu;

/// Appends to `out` the column whose cell k is row rows[k] of column
/// srcs[src_of[k]] (srcs[0] when `src_of` is null), or NULL where rows[k]
/// is kNullRow, for k in [0, n): the gather step of the hash join's output.
/// Typed cells and the null bytemap are allocated from `out->arena`, boxed
/// cells from a new `out->boxed_pool` entry; string cells keep pointing
/// into the sources' storage, which `out` must keep alive (pins). Sources
/// of different physical types gather into boxed Values. A source is read
/// only at rows other than kNullRow, so a NULL-only column needs just
/// srcs[0].type.
void AppendGatheredColumn(const ColumnVector* srcs, size_t num_srcs,
                          const uint32_t* src_of, const uint32_t* rows,
                          size_t n, ColumnBatch* out);

/// Boxes the *active* rows of `batch` into a compact RowBatch (the
/// column-to-row conversion boundary used by unconverted consumers).
void ColumnsToRows(const ColumnBatch& batch, RowBatch* out);

/// Decomposes a RowBatch into an owned ColumnBatch (the bridge that feeds
/// paged leaves, which decode rows, to the morsel-parallel executor's
/// columnar workers). Fails on ragged rows.
Result<ColumnBatch> RowsToColumns(const RowBatch& rows,
                                  const RelDataType& row_type);

}  // namespace calcite

#endif  // CALCITE_EXEC_COLUMN_BATCH_H_
