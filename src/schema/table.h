#ifndef CALCITE_SCHEMA_TABLE_H_
#define CALCITE_SCHEMA_TABLE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/column_batch.h"
#include "exec/row_batch.h"
#include "plan/traits.h"
#include "schema/table_stats.h"
#include "type/rel_data_type.h"
#include "type/value.h"
#include "util/status.h"

namespace calcite {

/// A table known to the framework. Adapters implement this to describe the
/// data in their backend (Figure 3: "the data itself is physically accessed
/// via tables"). The minimal contract is a row type plus Scan() — "if an
/// adapter implements the table scan operator, the Calcite optimizer is then
/// able to use client-side operators ... to execute arbitrary SQL queries".
class Table {
 public:
  virtual ~Table() = default;

  /// The relational row type of this table.
  virtual RelDataTypePtr GetRowType(const TypeFactory& factory) const = 0;

  /// Optimizer statistics (schema/table_stats.h): declarative facts from
  /// the adapter plus per-column ANALYZE results when available. Default:
  /// everything unknown.
  virtual TableStats GetStatistic() const { return TableStats{}; }

  /// Full scan of the table contents, in storage order: the paper's
  /// minimal adapter contract, and all the default OpenScan needs.
  virtual Result<std::vector<Row>> Scan() const = 0;

  /// The scan entry point: one ScanSpec (exec/row_batch.h) carries batch
  /// size, pushed predicates, projection hint, ANALYZE sample fraction,
  /// access-path hint and scan-unit range, so per-scan features do not each
  /// grow a virtual. Result rows satisfy every pushed predicate. The default
  /// materializes Scan(), filters, re-chunks and applies the
  /// access-path-independent decorators (sampling, projection); a
  /// unit-ranged spec on a table without scan units is InvalidArgument.
  /// Tables that hold rows override it to slice their storage without the
  /// full copy; tables with several physical access paths (DiskTable)
  /// resolve spec.access_path themselves. The returned puller may capture
  /// `this` — the caller (the scan operator) must keep the table alive
  /// while pulling, which EnumerableTableScan does by holding its TablePtr
  /// in the pipeline closure.
  virtual Result<RowBatchPuller> OpenScan(const ScanSpec& spec) const;

  /// Paged scan surface for tables whose rows live out-of-core and so have
  /// no MaterializedColumns(): the table partitions itself into
  /// independently scannable units — for a disk table, a run of heap pages
  /// — and the morsel-driven parallel executor claims whole units as
  /// morsels, each worker reading only the unit it claimed (a unit-ranged
  /// OpenScan, thread-safe for distinct units) instead of a whole-table
  /// copy. 0 (the default) means no paged surface; a table with neither
  /// surface runs its fragments on the serial operators. Units must tile
  /// the table: concatenating the unit-ranged OpenScans of units
  /// 0..ScanUnitCount()-1 yields exactly Scan()'s rows.
  virtual size_t ScanUnitCount() const { return 0; }

  /// The table's contents decomposed into column-major typed storage
  /// (exec/column_batch.h), or nullptr when the table cannot provide it.
  /// This is the access path of the columnar hot path and of the
  /// morsel-driven parallel executor: scans slice zero-copy column views
  /// out of the returned decomposition (parallel workers claim row-range
  /// morsels of it) and evaluate pushed predicates on the raw columns
  /// before any row materialization.
  /// Tables that physically hold rows build the decomposition lazily on
  /// first use and cache it (ColumnarCache); the shared_ptr keeps it alive
  /// for in-flight scans even if the cache is invalidated by a mutation.
  virtual TableColumnsPtr MaterializedColumns(const TypeFactory&) const {
    return nullptr;
  }

  /// True if this table is a stream (time-ordered, unbounded in principle;
  /// §7.2). STREAM queries are only legal on streaming tables.
  virtual bool IsStream() const { return false; }
};

using TablePtr = std::shared_ptr<Table>;

/// A straightforward in-memory table: a row type plus a vector of rows,
/// with a lazily built columnar decomposition. The one row-holding table:
/// tests, examples, the CSV reader and the simulated Cassandra and stream
/// backends all keep their rows here.
class MemTable : public Table {
 public:
  MemTable(RelDataTypePtr row_type, std::vector<Row> rows)
      : row_type_(std::move(row_type)), rows_(std::move(rows)) {}

  RelDataTypePtr GetRowType(const TypeFactory&) const override {
    return row_type_;
  }

  TableStats GetStatistic() const override {
    TableStats stat = statistic_;
    if (!stat.row_count.has_value()) {
      stat.row_count = static_cast<double>(rows_.size());
    }
    return stat;
  }

  Result<std::vector<Row>> Scan() const override { return rows_; }

  /// Slices the stored rows; pushed predicates run against them directly,
  /// so rows that fail are never copied. No scan units.
  Result<RowBatchPuller> OpenScan(const ScanSpec& spec) const override;

  TableColumnsPtr MaterializedColumns(const TypeFactory&) const override {
    return columnar_.Get(rows_, row_type_);
  }

  /// Mutable access (test/bench setup, stream appends). Conservatively
  /// drops the cached columnar decomposition — the caller may mutate the
  /// rows through the returned reference.
  std::vector<Row>& rows() {
    columnar_.Invalidate();
    return rows_;
  }
  void set_statistic(TableStats statistic) { statistic_ = std::move(statistic); }

 private:
  RelDataTypePtr row_type_;
  std::vector<Row> rows_;
  TableStats statistic_;
  ColumnarCache columnar_;
};

/// A view: a table defined by a SQL query over other tables. The validator
/// expands views in-place during name resolution (§7.1 uses views to expose
/// semi-structured data relationally).
class ViewTable : public Table {
 public:
  ViewTable(std::string sql, RelDataTypePtr row_type)
      : sql_(std::move(sql)), row_type_(std::move(row_type)) {}

  const std::string& sql() const { return sql_; }

  RelDataTypePtr GetRowType(const TypeFactory&) const override {
    return row_type_;
  }

  Result<std::vector<Row>> Scan() const override {
    return Status::Internal(
        "views are expanded during validation and never scanned directly");
  }

 private:
  std::string sql_;
  RelDataTypePtr row_type_;
};

}  // namespace calcite

#endif  // CALCITE_SCHEMA_TABLE_H_
