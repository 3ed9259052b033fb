#include "storage/disk_table.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "storage/row_codec.h"

namespace calcite::storage {

using calcite::Result;
using calcite::Status;

namespace {

// Meta page (page 0) layout, after the common 12-byte header:
//   offset 12  uint32  magic
//   offset 16  uint32  format version
//   offset 20  uint32  B-tree root page id
//   offset 24  uint32  first heap page id (kInvalidPageId when empty)
//   offset 28  uint32  last heap page id
//   offset 32  uint64  row count
//   offset 40  int32   primary-key column ordinal
//   offset 44  uint32  first stats catalog page id (v2+; kInvalidPageId
//                      when the table was never ANALYZEd)
constexpr uint32_t kMetaMagic = 0x43414C54;  // "CALT"
// v1 = pre-statistics layout (no offset-44 field); v2 adds the stats
// catalog pointer. Open() accepts both — a v1 file reads as "no stats".
constexpr uint32_t kMetaVersion = 2;
constexpr uint32_t kMinMetaVersion = 1;
constexpr PageId kMetaPageId = 0;

// A B-tree insert pins one node per level plus the sibling pages a split
// allocates, and a scan holds a heap pin while walking a leaf. This floor
// keeps even deliberately tiny test pools (pool ≪ table) deadlock-free.
constexpr size_t kMinPoolPages = 8;

// The bounds the pushed conjuncts place on the integer primary key.
// Conservative by construction: the derived [lo, hi] may admit rows a
// predicate rejects (every predicate is re-applied to fetched rows), but
// must never exclude a row that passes them all.
struct KeyRange {
  bool usable = false;  // at least one conjunct bounded the key
  bool empty = false;   // conjuncts are provably unsatisfiable on the key
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
};

constexpr double kTwoPow63 = 9223372036854775808.0;  // 2^63, exact in double

KeyRange DeriveKeyRange(const ScanPredicateList& predicates, int key_column) {
  KeyRange r;
  // Tightens r.lo to "key >= b" / r.hi to "key <= b" for an integral-valued
  // double bound, saturating at the int64 range.
  auto apply_lo = [&r](double b) {
    r.usable = true;
    if (b >= kTwoPow63) {
      r.empty = true;
    } else if (b >= -kTwoPow63) {
      r.lo = std::max(r.lo, static_cast<int64_t>(b));
    }
  };
  auto apply_hi = [&r](double b) {
    r.usable = true;
    if (b < -kTwoPow63) {
      r.empty = true;
    } else if (b < kTwoPow63) {
      r.hi = std::min(r.hi, static_cast<int64_t>(b));
    }
  };

  using Kind = ScanPredicate::Kind;
  for (const ScanPredicate& pred : predicates) {
    if (pred.column != key_column) continue;
    if (pred.kind == Kind::kIsNull) {
      // Primary keys are never NULL.
      r.usable = true;
      r.empty = true;
      continue;
    }
    if (pred.kind == Kind::kIsNotNull || pred.kind == Kind::kNotEquals) {
      continue;  // no useful contiguous bound
    }
    const Value& lit = pred.literal;
    if (lit.IsNull()) {
      // A comparison against NULL never passes.
      r.usable = true;
      r.empty = true;
      continue;
    }
    if (lit.is_int()) {
      int64_t v = lit.AsInt();
      switch (pred.kind) {
        case Kind::kEquals:
          r.usable = true;
          r.lo = std::max(r.lo, v);
          r.hi = std::min(r.hi, v);
          break;
        case Kind::kLessThan:
          r.usable = true;
          if (v == std::numeric_limits<int64_t>::min()) r.empty = true;
          else r.hi = std::min(r.hi, v - 1);
          break;
        case Kind::kLessThanOrEqual:
          r.usable = true;
          r.hi = std::min(r.hi, v);
          break;
        case Kind::kGreaterThan:
          r.usable = true;
          if (v == std::numeric_limits<int64_t>::max()) r.empty = true;
          else r.lo = std::max(r.lo, v + 1);
          break;
        case Kind::kGreaterThanOrEqual:
          r.usable = true;
          r.lo = std::max(r.lo, v);
          break;
        default:
          break;
      }
      continue;
    }
    if (lit.is_double()) {
      double d = lit.AsDouble();
      if (std::isnan(d)) continue;  // leave NaN semantics to the re-check
      switch (pred.kind) {
        case Kind::kEquals:
          if (d != std::floor(d)) {
            r.usable = true;
            r.empty = true;  // an integer key never equals a fractional value
          } else {
            apply_lo(d);
            apply_hi(d);
          }
          break;
        case Kind::kLessThan:
          apply_hi(std::ceil(d) - 1.0);
          break;
        case Kind::kLessThanOrEqual:
          apply_hi(std::floor(d));
          break;
        case Kind::kGreaterThan:
          apply_lo(std::floor(d) + 1.0);
          break;
        case Kind::kGreaterThanOrEqual:
          apply_lo(std::ceil(d));
          break;
        default:
          break;
      }
      continue;
    }
    // Non-numeric literal: no bound; the heap path (or the re-check, if
    // another conjunct made the range usable) handles it.
  }
  if (r.lo > r.hi) r.empty = true;
  return r;
}

/// Estimated fraction of the table's rows with key in [lo, hi], from the
/// key column's ANALYZE stats. Histogram when present (continuous reading:
/// F(hi+1) - F(lo), integer keys), uniform [min, max] interpolation
/// otherwise; 1.0 when the stats cannot bound it (cost model then prefers
/// the heap scan, the safe default).
double EstimateKeyRangeFraction(const ColumnStats& stats, int64_t lo,
                                int64_t hi) {
  double lo_d = static_cast<double>(lo);
  double hi_d = static_cast<double>(hi) + 1.0;
  if (!stats.histogram.empty()) {
    return std::max(0.0, stats.histogram.FractionBelow(hi_d) -
                             stats.histogram.FractionBelow(lo_d));
  }
  if (!stats.min.is_numeric() || !stats.max.is_numeric()) return 1.0;
  double min = stats.min.AsDouble();
  double max = stats.max.AsDouble();
  if (max <= min) return lo_d <= min && min < hi_d ? 1.0 : 0.0;
  double below_hi = std::clamp((hi_d - min) / (max - min), 0.0, 1.0);
  double below_lo = std::clamp((lo_d - min) / (max - min), 0.0, 1.0);
  return below_hi - below_lo;
}

}  // namespace

DiskTable::DiskTable(RelDataTypePtr row_type, int key_column,
                     DiskTableOptions options,
                     std::unique_ptr<DiskManager> disk,
                     std::unique_ptr<BufferPool> pool)
    : row_type_(std::move(row_type)),
      key_column_(key_column),
      options_(options),
      disk_(std::move(disk)),
      pool_(std::move(pool)) {}

Result<std::shared_ptr<DiskTable>> DiskTable::Create(const std::string& path,
                                                     RelDataTypePtr row_type,
                                                     int key_column,
                                                     DiskTableOptions options) {
  if (key_column < 0) {
    return Status::InvalidArgument("primary-key column ordinal is negative");
  }
  if (options.pages_per_run == 0) options.pages_per_run = 1;
  options.pool_pages = std::max(options.pool_pages, kMinPoolPages);
  CALCITE_ASSIGN_OR_RETURN(std::unique_ptr<DiskManager> disk,
                           DiskManager::Open(path, /*truncate=*/true));
  auto pool = std::make_unique<BufferPool>(disk.get(), options.pool_pages);
  BufferPool* pool_raw = pool.get();
  std::shared_ptr<DiskTable> table(new DiskTable(
      std::move(row_type), key_column, options, std::move(disk),
      std::move(pool)));
  {
    PageId meta_id = kInvalidPageId;
    CALCITE_ASSIGN_OR_RETURN(PageGuard meta, pool_raw->New(&meta_id));
    if (meta_id != kMetaPageId) {
      return Status::Internal("fresh table file did not start at page 0");
    }
    SetPageType(meta.data(), PageType::kMeta);
    meta.MarkDirty();
  }
  CALCITE_ASSIGN_OR_RETURN(PageId root, BTree::CreateEmpty(pool_raw));
  table->index_ = std::make_unique<BTree>(pool_raw, root);
  CALCITE_RETURN_IF_ERROR(table->Flush());
  return table;
}

Result<std::shared_ptr<DiskTable>> DiskTable::Open(const std::string& path,
                                                   RelDataTypePtr row_type,
                                                   DiskTableOptions options) {
  if (options.pages_per_run == 0) options.pages_per_run = 1;
  options.pool_pages = std::max(options.pool_pages, kMinPoolPages);
  CALCITE_ASSIGN_OR_RETURN(std::unique_ptr<DiskManager> disk,
                           DiskManager::Open(path, /*truncate=*/false));
  auto pool = std::make_unique<BufferPool>(disk.get(), options.pool_pages);
  std::shared_ptr<DiskTable> table(new DiskTable(
      std::move(row_type), /*key_column=*/0, options, std::move(disk),
      std::move(pool)));
  CALCITE_RETURN_IF_ERROR(table->LoadMeta());
  return table;
}

Status DiskTable::WriteMeta() {
  CALCITE_ASSIGN_OR_RETURN(PageGuard meta, pool_->Fetch(kMetaPageId));
  char* p = meta.data();
  SetPageType(p, PageType::kMeta);
  StoreAt<uint32_t>(p, 12, kMetaMagic);
  StoreAt<uint32_t>(p, 16, kMetaVersion);
  StoreAt<uint32_t>(p, 20, index_ ? index_->root() : kInvalidPageId);
  StoreAt<uint32_t>(p, 24,
                    heap_pages_.empty() ? kInvalidPageId : heap_pages_.front());
  StoreAt<uint32_t>(p, 28,
                    heap_pages_.empty() ? kInvalidPageId : heap_pages_.back());
  StoreAt<uint64_t>(p, 32, static_cast<uint64_t>(row_count_));
  StoreAt<int32_t>(p, 40, static_cast<int32_t>(key_column_));
  StoreAt<uint32_t>(p, 44, stats_head_);
  meta.MarkDirty();
  return Status::OK();
}

Status DiskTable::LoadMeta() {
  PageId root;
  PageId first_heap;
  PageId stats_head = kInvalidPageId;
  {
    CALCITE_ASSIGN_OR_RETURN(PageGuard meta, pool_->Fetch(kMetaPageId));
    const char* p = meta.data();
    if (GetPageType(p) != PageType::kMeta ||
        LoadAt<uint32_t>(p, 12) != kMetaMagic) {
      return Status::InvalidArgument(disk_->path() +
                                     " is not a disk-table file");
    }
    uint32_t version = LoadAt<uint32_t>(p, 16);
    if (version < kMinMetaVersion || version > kMetaVersion) {
      return Status::Unsupported("disk-table format version mismatch");
    }
    root = LoadAt<uint32_t>(p, 20);
    first_heap = LoadAt<uint32_t>(p, 24);
    row_count_ = static_cast<size_t>(LoadAt<uint64_t>(p, 32));
    key_column_ = static_cast<int>(LoadAt<int32_t>(p, 40));
    // v1 files predate the stats catalog: they reopen as unanalyzed.
    if (version >= 2) stats_head = LoadAt<uint32_t>(p, 44);
  }
  index_ = std::make_unique<BTree>(pool_.get(), root);
  heap_pages_.clear();
  for (PageId id = first_heap; id != kInvalidPageId;) {
    CALCITE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(id));
    if (GetPageType(guard.data()) != PageType::kHeap) {
      return Status::RuntimeError("heap chain reaches a non-heap page");
    }
    heap_pages_.push_back(id);
    if (heap_pages_.size() > disk_->page_count()) {
      return Status::RuntimeError("heap chain cycle");
    }
    id = GetNextPage(guard.data());
  }
  return LoadStats(stats_head);
}

Status DiskTable::InsertRows(const std::vector<Row>& rows) {
  auto insert_one = [this](const Row& row) -> Status {
    if (static_cast<size_t>(key_column_) >= row.size()) {
      return Status::InvalidArgument("row narrower than the key column");
    }
    const Value& key_value = row[key_column_];
    if (!key_value.is_int()) {
      return Status::InvalidArgument(
          "primary-key value must be a non-NULL integer; got " +
          key_value.ToString());
    }
    int64_t key = key_value.AsInt();
    CALCITE_ASSIGN_OR_RETURN(std::optional<Rid> existing, index_->Lookup(key));
    if (existing.has_value()) {
      return Status::InvalidArgument("duplicate primary key " +
                                     std::to_string(key));
    }
    std::string encoded;
    CALCITE_RETURN_IF_ERROR(EncodeRow(row, &encoded));
    if (encoded.size() > SlottedPage::MaxRecordSize()) {
      return Status::InvalidArgument("row exceeds the page record limit");
    }
    // Append into the last heap page, chaining a fresh one when it is full.
    Rid rid;
    std::optional<uint16_t> slot;
    if (!heap_pages_.empty()) {
      CALCITE_ASSIGN_OR_RETURN(PageGuard last, pool_->Fetch(heap_pages_.back()));
      SlottedPage page(last.data());
      slot = page.Insert(encoded.data(), encoded.size());
      if (slot.has_value()) {
        last.MarkDirty();
        rid = Rid{heap_pages_.back(), *slot};
      }
    }
    if (!slot.has_value()) {
      PageId new_id = kInvalidPageId;
      CALCITE_ASSIGN_OR_RETURN(PageGuard fresh, pool_->New(&new_id));
      SlottedPage page(fresh.data());
      page.Init(PageType::kHeap);
      slot = page.Insert(encoded.data(), encoded.size());
      if (!slot.has_value()) {
        return Status::Internal("empty heap page rejected a record");
      }
      fresh.MarkDirty();
      fresh.Release();
      if (!heap_pages_.empty()) {
        CALCITE_ASSIGN_OR_RETURN(PageGuard prev, pool_->Fetch(heap_pages_.back()));
        SetNextPage(prev.data(), new_id);
        prev.MarkDirty();
      }
      heap_pages_.push_back(new_id);
      rid = Rid{new_id, *slot};
    }
    CALCITE_RETURN_IF_ERROR(index_->Insert(key, rid));
    ++row_count_;
    return Status::OK();
  };

  Status st = Status::OK();
  for (const Row& row : rows) {
    st = insert_one(row);
    if (!st.ok()) break;
  }
  // Persist the meta even on a partial failure — the rows before the
  // offender are inserted and must stay reachable.
  Status meta = WriteMeta();
  return st.ok() ? meta : st;
}

Status DiskTable::Flush() {
  CALCITE_RETURN_IF_ERROR(WriteMeta());
  CALCITE_RETURN_IF_ERROR(pool_->FlushAll());
  return disk_->Sync();
}

TableStats DiskTable::GetStatistic() const {
  TableStats stat = stats_;
  stat.row_count = static_cast<double>(row_count_);
  stat.unique_keys = {{key_column_}};
  return stat;
}

// ------------------------- statistics catalog -------------------------
//
// The catalog is a chain of kStats slotted pages holding self-describing
// codec rows (row_codec.h), so it needs no schema of its own:
//   record 0:  [version, column_count, row_count]
//   record i:  [column_ordinal, min, max, null_fraction, ndv,
//               histogram_lo, histogram_hi, bucket_count, bucket_0 ...]
// Column records follow the header in ordinal order, spilling onto chained
// pages as needed.

namespace {

constexpr size_t kStatsColumnFixedFields = 8;

Result<std::string> EncodeColumnStatsRecord(int ordinal,
                                            const ColumnStats& cs) {
  Row record;
  record.reserve(kStatsColumnFixedFields + cs.histogram.buckets.size());
  record.push_back(Value::Int(ordinal));
  record.push_back(cs.min);
  record.push_back(cs.max);
  record.push_back(Value::Double(cs.null_fraction));
  record.push_back(Value::Double(cs.ndv));
  record.push_back(Value::Double(cs.histogram.lo));
  record.push_back(Value::Double(cs.histogram.hi));
  record.push_back(
      Value::Int(static_cast<int64_t>(cs.histogram.buckets.size())));
  for (double b : cs.histogram.buckets) record.push_back(Value::Double(b));
  std::string encoded;
  Status st = EncodeRow(record, &encoded);
  if (st.ok() && encoded.size() <= SlottedPage::MaxRecordSize()) {
    return encoded;
  }
  // Degrade until the record fits one page: first drop the histogram
  // (over-sized bucket counts), then the min/max (pathological VARCHAR
  // extremes). The remaining scalars always fit.
  record.resize(kStatsColumnFixedFields);
  record[7] = Value::Int(0);
  encoded.clear();
  st = EncodeRow(record, &encoded);
  if (!st.ok() || encoded.size() > SlottedPage::MaxRecordSize()) {
    record[1] = Value::Null();
    record[2] = Value::Null();
    encoded.clear();
    CALCITE_RETURN_IF_ERROR(EncodeRow(record, &encoded));
    if (encoded.size() > SlottedPage::MaxRecordSize()) {
      return Status::Internal("column stats record cannot fit a page");
    }
  }
  return encoded;
}

}  // namespace

Status DiskTable::WriteStats() {
  std::vector<std::string> records;
  records.reserve(1 + stats_.columns.size());
  {
    Row header{Value::Int(static_cast<int64_t>(stats_.version)),
               Value::Int(static_cast<int64_t>(stats_.columns.size())),
               Value::Double(stats_.row_count.value_or(
                   static_cast<double>(row_count_)))};
    std::string encoded;
    CALCITE_RETURN_IF_ERROR(EncodeRow(header, &encoded));
    records.push_back(std::move(encoded));
  }
  for (size_t i = 0; i < stats_.columns.size(); ++i) {
    CALCITE_ASSIGN_OR_RETURN(
        std::string encoded,
        EncodeColumnStatsRecord(static_cast<int>(i), stats_.columns[i]));
    records.push_back(std::move(encoded));
  }

  // Re-ANALYZE reuses the existing chain's pages before allocating fresh
  // ones (the engine has no free list; a shrinking chain strands its tail
  // pages, which is fine for a catalog that only ever grows by columns).
  std::vector<PageId> reusable;
  for (PageId id = stats_head_; id != kInvalidPageId;) {
    CALCITE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(id));
    if (GetPageType(guard.data()) != PageType::kStats) {
      return Status::RuntimeError("stats chain reaches a non-stats page");
    }
    reusable.push_back(id);
    if (reusable.size() > disk_->page_count()) {
      return Status::RuntimeError("stats chain cycle");
    }
    id = GetNextPage(guard.data());
  }

  PageId head = kInvalidPageId;
  PageId prev = kInvalidPageId;
  size_t next_record = 0;
  size_t reuse_index = 0;
  while (next_record < records.size()) {
    PageId id = kInvalidPageId;
    PageGuard guard;
    if (reuse_index < reusable.size()) {
      id = reusable[reuse_index++];
      CALCITE_ASSIGN_OR_RETURN(guard, pool_->Fetch(id));
    } else {
      CALCITE_ASSIGN_OR_RETURN(guard, pool_->New(&id));
    }
    SlottedPage page(guard.data());
    page.Init(PageType::kStats);
    while (next_record < records.size() &&
           page.Insert(records[next_record].data(),
                       records[next_record].size())
               .has_value()) {
      ++next_record;
    }
    guard.MarkDirty();
    guard.Release();
    if (head == kInvalidPageId) head = id;
    if (prev != kInvalidPageId) {
      CALCITE_ASSIGN_OR_RETURN(PageGuard prev_guard, pool_->Fetch(prev));
      SetNextPage(prev_guard.data(), id);
      prev_guard.MarkDirty();
    }
    prev = id;
  }
  stats_head_ = head;
  return Status::OK();
}

Status DiskTable::LoadStats(PageId head) {
  stats_ = TableStats{};
  stats_head_ = head;
  if (head == kInvalidPageId) return Status::OK();
  std::vector<Row> records;
  size_t chain_length = 0;
  for (PageId id = head; id != kInvalidPageId;) {
    CALCITE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(id));
    if (GetPageType(guard.data()) != PageType::kStats) {
      return Status::RuntimeError("stats chain reaches a non-stats page");
    }
    if (++chain_length > disk_->page_count()) {
      return Status::RuntimeError("stats chain cycle");
    }
    SlottedPage page(const_cast<char*>(guard.data()));
    for (uint16_t s = 0; s < page.slot_count(); ++s) {
      size_t len = 0;
      const char* bytes = page.Get(s, &len);
      CALCITE_ASSIGN_OR_RETURN(Row record, DecodeRow(bytes, len));
      records.push_back(std::move(record));
    }
    id = GetNextPage(guard.data());
  }
  if (records.empty()) return Status::OK();
  const Row& header = records[0];
  if (header.size() < 3 || !header[0].is_int() || !header[1].is_int()) {
    return Status::RuntimeError("stats catalog header is malformed");
  }
  auto version = static_cast<uint32_t>(header[0].AsInt());
  if (version == 0 || version > TableStats::kFormatVersion) {
    // Written by a newer build: ignore rather than misread (the table just
    // reads as unanalyzed until re-ANALYZEd).
    return Status::OK();
  }
  auto column_count = static_cast<size_t>(header[1].AsInt());
  if (header[2].is_numeric()) stats_.row_count = header[2].AsDouble();
  stats_.columns.assign(column_count, ColumnStats{});
  for (size_t r = 1; r < records.size(); ++r) {
    Row& record = records[r];
    if (record.size() < kStatsColumnFixedFields || !record[0].is_int() ||
        !record[7].is_int()) {
      return Status::RuntimeError("stats catalog record is malformed");
    }
    auto ordinal = static_cast<size_t>(record[0].AsInt());
    if (ordinal >= column_count) {
      return Status::RuntimeError("stats catalog ordinal out of range");
    }
    ColumnStats& cs = stats_.columns[ordinal];
    cs.min = std::move(record[1]);
    cs.max = std::move(record[2]);
    cs.null_fraction = record[3].IsNull() ? 0.0 : record[3].AsDouble();
    cs.ndv = record[4].IsNull() ? 0.0 : record[4].AsDouble();
    auto bucket_count = static_cast<size_t>(record[7].AsInt());
    if (record.size() != kStatsColumnFixedFields + bucket_count) {
      return Status::RuntimeError("stats catalog histogram is malformed");
    }
    if (bucket_count > 0) {
      cs.histogram.lo = record[5].IsNull() ? 0.0 : record[5].AsDouble();
      cs.histogram.hi = record[6].IsNull() ? 0.0 : record[6].AsDouble();
      cs.histogram.buckets.reserve(bucket_count);
      for (size_t b = 0; b < bucket_count; ++b) {
        const Value& v = record[kStatsColumnFixedFields + b];
        cs.histogram.buckets.push_back(v.IsNull() ? 0.0 : v.AsDouble());
      }
    }
    cs.analyzed = true;
  }
  stats_.version = version;
  return Status::OK();
}

Status DiskTable::Analyze(const AnalyzeOptions& options) {
  CALCITE_ASSIGN_OR_RETURN(TableStats stats, AnalyzeTable(*this, options));
  // The meta page tracks the exact count; never let a sample estimate
  // shadow it.
  stats.row_count = static_cast<double>(row_count_);
  stats_ = std::move(stats);
  CALCITE_RETURN_IF_ERROR(WriteStats());
  return WriteMeta();
}

Status DiskTable::DecodePages(size_t first_page_index, size_t last_page_index,
                              const ScanPredicateList* predicates,
                              std::vector<Row>* out) const {
  last_page_index = std::min(last_page_index, heap_pages_.size());
  for (size_t i = first_page_index; i < last_page_index; ++i) {
    CALCITE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(heap_pages_[i]));
    SlottedPage page(const_cast<char*>(guard.data()));
    uint16_t slots = page.slot_count();
    for (uint16_t s = 0; s < slots; ++s) {
      size_t len = 0;
      const char* bytes = page.Get(s, &len);
      CALCITE_ASSIGN_OR_RETURN(Row row, DecodeRow(bytes, len));
      if (predicates == nullptr || ScanPredicatesMatch(*predicates, row)) {
        out->push_back(std::move(row));
      }
    }
  }
  return Status::OK();
}

Result<std::vector<Row>> DiskTable::Scan() const {
  std::vector<Row> out;
  out.reserve(row_count_);
  CALCITE_RETURN_IF_ERROR(
      DecodePages(0, heap_pages_.size(), nullptr, &out));
  return out;
}

size_t DiskTable::ScanUnitCount() const {
  return (heap_pages_.size() + options_.pages_per_run - 1) /
         options_.pages_per_run;
}

RowBatchPuller DiskTable::MakeHeapPuller(size_t first_page, size_t last_page,
                                         size_t batch_size,
                                         ScanPredicateList predicates) const {
  struct State {
    size_t next_page = 0;
    std::vector<Row> buffer;
    size_t pos = 0;
  };
  auto state = std::make_shared<State>();
  state->next_page = first_page;
  last_page = std::min(last_page, heap_pages_.size());
  auto preds = std::make_shared<ScanPredicateList>(std::move(predicates));
  return [this, batch_size, state, preds, last_page]() -> Result<RowBatch> {
    RowBatch batch;
    // Producers never yield an empty batch mid-stream: keep pulling page
    // runs until at least one row survives or the chain ends.
    while (batch.size() < batch_size) {
      if (state->pos == state->buffer.size()) {
        state->buffer.clear();
        state->pos = 0;
        if (state->next_page >= last_page) break;
        size_t last = std::min(state->next_page + options_.pages_per_run,
                               last_page);
        CALCITE_RETURN_IF_ERROR(DecodePages(
            state->next_page, last, preds->empty() ? nullptr : preds.get(),
            &state->buffer));
        state->next_page = last;
        continue;
      }
      size_t take = std::min(batch_size - batch.size(),
                             state->buffer.size() - state->pos);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(state->buffer[state->pos + i]));
      }
      state->pos += take;
    }
    return batch;
  };
}

RowBatchPuller DiskTable::MakeIndexPuller(int64_t lo, int64_t hi,
                                          size_t batch_size,
                                          ScanPredicateList predicates) const {
  struct State {
    BTree::Cursor cursor;
    bool seeked = false;
  };
  auto state = std::make_shared<State>();
  auto preds = std::make_shared<ScanPredicateList>(std::move(predicates));
  return [this, lo, hi, batch_size, state, preds]() -> Result<RowBatch> {
    if (!state->seeked) {
      CALCITE_ASSIGN_OR_RETURN(state->cursor, index_->SeekFirst(lo));
      state->seeked = true;
    }
    RowBatch batch;
    std::vector<BTree::Entry> entries;
    while (batch.size() < batch_size && !state->cursor.AtEnd()) {
      entries.clear();
      CALCITE_RETURN_IF_ERROR(index_->NextRange(
          &state->cursor, hi, batch_size - batch.size(), &entries));
      // Entries arrive in key order, so consecutive rids often share a heap
      // page; hold one pin across the run of same-page fetches.
      PageGuard guard;
      for (const BTree::Entry& entry : entries) {
        if (!guard.valid() || guard.id() != entry.rid.page_id) {
          guard.Release();
          CALCITE_ASSIGN_OR_RETURN(guard, pool_->Fetch(entry.rid.page_id));
          if (GetPageType(guard.data()) != PageType::kHeap) {
            return Status::RuntimeError("index entry points at a non-heap page");
          }
        }
        SlottedPage page(const_cast<char*>(guard.data()));
        if (entry.rid.slot >= page.slot_count()) {
          return Status::RuntimeError("index entry points past the slot count");
        }
        size_t len = 0;
        const char* bytes = page.Get(entry.rid.slot, &len);
        CALCITE_ASSIGN_OR_RETURN(Row row, DecodeRow(bytes, len));
        // The key range is conservative; the pushed predicates decide.
        if (ScanPredicatesMatch(*preds, row)) batch.push_back(std::move(row));
      }
    }
    return batch;
  };
}

Result<RowBatchPuller> DiskTable::OpenScan(const ScanSpec& raw_spec) const {
  ScanSpec spec = raw_spec.Normalized();

  if (spec.has_unit_range()) {
    // Morsel path: a contiguous run of scan units maps to a contiguous run
    // of heap pages; the access-path machinery does not apply (the unit
    // tiling is heap order by definition).
    size_t units = ScanUnitCount();
    if (spec.unit_begin > units) {
      return Status::InvalidArgument("scan unit range out of bounds");
    }
    size_t first_page = spec.unit_begin * options_.pages_per_run;
    size_t last_page = spec.unit_end >= units
                           ? heap_pages_.size()
                           : spec.unit_end * options_.pages_per_run;
    return ApplyScanSpecDecorators(
        MakeHeapPuller(first_page, last_page, spec.batch_size,
                       std::move(spec.predicates)),
        spec);
  }

  const AccessPath path = spec.access_path;

  KeyRange range;
  bool use_index = false;
  if (path != AccessPath::kForceHeap && !spec.predicates.empty()) {
    range = DeriveKeyRange(spec.predicates, key_column_);
    if (range.usable) {
      if (path == AccessPath::kForceIndex) {
        use_index = true;
      } else if (const ColumnStats* key_stats = stats_.column(key_column_)) {
        // Cost-based choice: index only below the break-even fraction.
        use_index = range.empty ||
                    EstimateKeyRangeFraction(*key_stats, range.lo, range.hi) <=
                        options_.index_scan_max_fraction;
      } else {
        // No statistics: legacy rule — index whenever a range derives.
        use_index = true;
      }
    }
  }

  last_scan_used_index_ = use_index;
  RowBatchPuller puller;
  if (use_index) {
    puller = range.empty
                 ? ChunkRows({}, spec.batch_size)
                 : MakeIndexPuller(range.lo, range.hi, spec.batch_size,
                                   std::move(spec.predicates));
  } else {
    puller = MakeHeapPuller(0, heap_pages_.size(), spec.batch_size,
                            std::move(spec.predicates));
  }
  return ApplyScanSpecDecorators(std::move(puller), spec);
}

}  // namespace calcite::storage
