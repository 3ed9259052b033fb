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
/// Supported types: int, long, double, string, boolean. An empty cell is
/// NULL; any other cell must parse in full as its column's type (an int in
/// 32-bit range, a long in 64-bit range, a double in range, or `true` /
/// `false` in any case), or the parse fails naming the line and column.
/// The parsed rows are held in a MemTable, which scans directly in the
/// enumerable convention.
Result<std::shared_ptr<MemTable>> ParseCsv(const std::string& text);

/// Reads and parses one CSV file (see ParseCsv).
Result<std::shared_ptr<MemTable>> ReadCsvFile(const std::string& path);

/// The schema factory of Figure 3: "the schema factory component acquires
/// the metadata information from the model and generates a schema". Given a
/// directory, produces a Schema with one table per *.csv file.
Result<SchemaPtr> CsvSchemaFactory(const std::string& directory);

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_CSV_CSV_ADAPTER_H_
