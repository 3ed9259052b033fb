#ifndef CALCITE_ADAPTERS_CSV_CSV_ADAPTER_H_
#define CALCITE_ADAPTERS_CSV_CSV_ADAPTER_H_

#include <memory>
#include <string>
#include <vector>

#include "schema/schema.h"
#include "util/status.h"

namespace calcite {

/// The classic file adapter (Calcite's CSV tutorial adapter): a directory of
/// CSV files becomes a schema; each file a table. The header line declares
/// the columns as `name:type` pairs, e.g. `empno:int,name:string,sal:double`.
/// Tables scan directly in the enumerable convention.
class CsvTable final : public Table {
 public:
  /// Parses the CSV text (header + data lines). Supported types: int,
  /// long, double, string, boolean.
  static Result<std::shared_ptr<CsvTable>> FromText(const std::string& text);

  /// Reads a file from disk.
  static Result<std::shared_ptr<CsvTable>> FromFile(const std::string& path);

  RelDataTypePtr GetRowType(const TypeFactory&) const override {
    return row_type_;
  }
  TableStats GetStatistic() const override;
  Result<std::vector<Row>> Scan() const override { return rows_; }

  /// Emits the parsed file a batch at a time, without re-copying the whole
  /// table per scan (the scan operator pins this table while pulling).
  Result<RowBatchPuller> ScanBatched(size_t batch_size) const override {
    return SliceRows(rows_, batch_size);
  }

  /// Pushed predicates filter the parsed rows before any copy.
  Result<RowBatchPuller> ScanBatchedFiltered(
      size_t batch_size, ScanPredicateList predicates) const override {
    return FilterSliceRows(rows_, batch_size, std::move(predicates));
  }

  /// The parsed file is immutable, so the columnar decomposition is built
  /// once and never invalidated.
  TableColumnsPtr MaterializedColumns(const TypeFactory&) const override {
    return columnar_.Get(rows_, row_type_);
  }

 private:
  CsvTable(RelDataTypePtr row_type, std::vector<Row> rows)
      : row_type_(std::move(row_type)), rows_(std::move(rows)) {}

  RelDataTypePtr row_type_;
  std::vector<Row> rows_;
  ColumnarCache columnar_;
};

/// The schema factory of Figure 3: "the schema factory component acquires
/// the metadata information from the model and generates a schema". Given a
/// directory, produces a Schema with one CsvTable per *.csv file.
Result<SchemaPtr> CsvSchemaFactory(const std::string& directory);

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_CSV_CSV_ADAPTER_H_
