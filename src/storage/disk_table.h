#ifndef CALCITE_STORAGE_DISK_TABLE_H_
#define CALCITE_STORAGE_DISK_TABLE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "schema/analyze.h"
#include "schema/table.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/status.h"

namespace calcite::storage {

/// Tuning knobs of a disk table.
struct DiskTableOptions {
  /// Buffer pool capacity in pages. Clamped up to a small minimum — B-tree
  /// inserts pin one node per level plus the pages a split allocates, so a
  /// pool smaller than that could deadlock on its own pins.
  size_t pool_pages = 64;
  /// Heap pages per scan unit ("page run") — the morsel granularity of
  /// parallel scans and the read granularity of serial ones.
  size_t pages_per_run = 8;
  /// Cost-based access-path break-even: with AccessPath::kAuto and ANALYZE
  /// statistics, a pushed key range estimated to select at most this
  /// fraction of the table goes to the B-tree; anything wider scans the
  /// heap. The index pays a random heap fetch per matching row (thrashing
  /// a pool smaller than the table), the heap scan pays one sequential
  /// pass regardless of selectivity — measured break-even sits between 1%
  /// and 50% (BM_CostBasedAccessPath), and 10% is a conservative default.
  double index_scan_max_fraction = 0.1;
};

/// An out-of-core table: rows live in slotted heap pages on disk, cached
/// through a pin/unpin buffer pool, with a B+-tree primary index on one
/// int64 key column. Participates in the execution stack end-to-end:
///
///  - OpenScan streams the heap page chain one page run at a time, so a
///    table far larger than the buffer pool scans in bounded memory.
///  - Pushed `$key <op> literal` conjuncts that bound the primary key can
///    route to an index range scan (B-tree seek + bounded leaf walk); every
///    pushed predicate is still re-checked on the fetched rows, so the
///    index path is a pure access-path change. Under AccessPath::kAuto the
///    choice is cost-based: the ANALYZE histogram of the key column
///    estimates the range's selectivity, and the index is taken only below
///    DiskTableOptions::index_scan_max_fraction (without statistics the
///    legacy rule applies — index whenever a range derives).
///  - Analyze() collects per-column statistics (schema/analyze.h) and
///    persists them into dedicated kStats catalog pages; Open() reloads
///    them, so a reopened table is cost-based immediately.
///  - MaterializedColumns() returns nullptr: the columnar cache is bypassed
///    for disk tables (it would pin the whole table in RAM), and the
///    morsel-parallel executor uses the paged scan-unit surface instead of
///    row-range morsels — a page run is a morsel, read by a unit-ranged
///    OpenScan.
///
/// Mutation (InsertRows) is single-writer and must not run concurrently
/// with scans — the MemTable contract. Readers may run concurrently with
/// each other (the buffer pool is internally locked).
class DiskTable : public Table {
 public:
  /// Creates a fresh table file at `path` (truncating any existing file).
  /// `key_column` must name an int64 (INTEGER/BIGINT) field of `row_type`;
  /// its values must be non-NULL and unique.
  static calcite::Result<std::shared_ptr<DiskTable>> Create(
      const std::string& path, RelDataTypePtr row_type, int key_column,
      DiskTableOptions options = {});

  /// Reopens an existing table file; `row_type` must match the one the
  /// file was created with (the codec is self-describing, so mismatches
  /// surface as decode/type errors, not corruption).
  static calcite::Result<std::shared_ptr<DiskTable>> Open(
      const std::string& path, RelDataTypePtr row_type,
      DiskTableOptions options = {});

  /// Appends rows: encodes each into the heap, indexes its key. Duplicate
  /// or NULL/non-integer keys fail the batch partway — rows before the
  /// offender stay inserted (no rollback; this is a storage engine, not a
  /// transaction manager).
  calcite::Status InsertRows(const std::vector<Row>& rows);

  /// Writes all dirty pages and the meta page back and fsyncs, so a
  /// subsequent Open() sees everything.
  calcite::Status Flush();

  /// ANALYZE: streams the table through the buffer pool (optionally
  /// sampling — see AnalyzeOptions), collects per-column statistics, and
  /// persists them into the table's kStats catalog pages (durable after
  /// the next Flush; Open reloads them). The exact row count replaces the
  /// sample estimate. Same quiescence contract as InsertRows.
  calcite::Status Analyze(const AnalyzeOptions& options = {});

  // ------------------------------ Table ------------------------------

  RelDataTypePtr GetRowType(const TypeFactory&) const override {
    return row_type_;
  }

  TableStats GetStatistic() const override;

  calcite::Result<std::vector<Row>> Scan() const override;

  /// The scan entry point. Resolves spec.access_path (kAuto goes to the
  /// cost model) and honours the scan-unit range with a page-range heap
  /// scan, so parallel morsel workers and ANALYZE sampling go through the
  /// same entry point. A unit range starting past ScanUnitCount() is
  /// InvalidArgument.
  calcite::Result<RowBatchPuller> OpenScan(const ScanSpec& spec) const override;

  size_t ScanUnitCount() const override;

  // --------------------------- observability --------------------------

  /// The statistics loaded from the catalog pages (empty `columns` until
  /// the first Analyze()).
  const TableStats& stats() const { return stats_; }

  int key_column() const { return key_column_; }
  size_t row_count() const { return row_count_; }
  size_t heap_page_count() const { return heap_pages_.size(); }
  const BufferPool& buffer_pool() const { return *pool_; }

  /// True if the last whole-table OpenScan stream was served by the index
  /// path (bench/test introspection; races with concurrent scans are
  /// benign).
  bool last_scan_used_index() const {
    return last_scan_used_index_.load(std::memory_order_relaxed);
  }

 private:
  DiskTable(RelDataTypePtr row_type, int key_column, DiskTableOptions options,
            std::unique_ptr<DiskManager> disk,
            std::unique_ptr<BufferPool> pool);

  calcite::Status WriteMeta();
  calcite::Status LoadMeta();

  /// Serializes stats_ into the kStats catalog chain (reusing the existing
  /// chain's pages before allocating new ones) and points stats_head_ at
  /// it. Persisted by the next WriteMeta/Flush.
  calcite::Status WriteStats();
  /// Loads the catalog chain at `head` into stats_; a chain written by an
  /// unknown future format version is ignored (table reads as unanalyzed).
  calcite::Status LoadStats(PageId head);

  /// Batch stream over heap pages [first_page, last_page) of the chain,
  /// applying `predicates` (possibly empty) to each decoded row; reads one
  /// page run ahead, so concurrent pins stay ~1 regardless of table size.
  RowBatchPuller MakeHeapPuller(size_t first_page, size_t last_page,
                                size_t batch_size,
                                ScanPredicateList predicates) const;

  /// Batch stream over the B-tree range [lo, hi]: seek once, walk the leaf
  /// chain, fetch each entry's heap record, and re-check every pushed
  /// predicate on the decoded row.
  RowBatchPuller MakeIndexPuller(int64_t lo, int64_t hi, size_t batch_size,
                                 ScanPredicateList predicates) const;

  /// Decodes every record of heap pages [first, last) into `out`,
  /// optionally keeping only predicate-passing rows.
  calcite::Status DecodePages(size_t first_page_index, size_t last_page_index,
                              const ScanPredicateList* predicates,
                              std::vector<Row>* out) const;

  RelDataTypePtr row_type_;
  int key_column_;
  DiskTableOptions options_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTree> index_;

  /// Heap page ids in chain order (rebuilt from the chain at Open). Append
  /// only while scans are quiesced — same contract as MemTable::rows().
  std::vector<PageId> heap_pages_;
  size_t row_count_ = 0;
  /// ANALYZE results (stats_head_ = first kStats catalog page, or
  /// kInvalidPageId before the first Analyze()).
  TableStats stats_;
  PageId stats_head_ = kInvalidPageId;
  mutable std::atomic<bool> last_scan_used_index_{false};
};

}  // namespace calcite::storage

#endif  // CALCITE_STORAGE_DISK_TABLE_H_
