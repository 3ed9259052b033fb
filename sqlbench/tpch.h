#ifndef SQLBENCH_TPCH_H_
#define SQLBENCH_TPCH_H_

// A deterministic, seeded generator for a TPC-H-shaped schema (region,
// nation, supplier, part, customer, orders, lineitem). It follows the
// TPC-H specification for table shapes, cardinalities and value domains,
// not dbgen's exact text: the same (scale factor, seed) always yields the
// same data. Dates are INTEGER day numbers since 1970-01-01, and lineitem
// carries a surrogate INTEGER key (l_id) so every table can be a DiskTable.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "schema/schema.h"
#include "storage/disk_table.h"
#include "type/value.h"

namespace sqlbench {

/// Day numbers used by the generator and the queries.
constexpr int64_t kStartDate = 8035;    // 1992-01-01
constexpr int64_t kCurrentDate = 9298;  // 1995-06-17
constexpr int64_t kEndDate = 10440;     // 1998-08-02

/// splitmix64: a portable generator, so the data do not depend on the
/// standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  template <typename T>
  const T& Pick(const std::vector<T>& items) {
    return items[Next() % items.size()];
  }

 private:
  uint64_t state_;
};

enum class ColType { kInt, kDouble, kString };

struct Column {
  std::string name;
  ColType type = ColType::kInt;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
};

/// One generated table in column-major arrays; column `key_column` is a
/// dense unique INTEGER key.
struct TableData {
  std::string name;
  int key_column = 0;
  size_t rows = 0;
  std::vector<Column> columns;

  const Column& col(const std::string& name) const;
  /// Boxes the arrays into engine rows.
  std::vector<calcite::Row> ToRows() const;
  calcite::RelDataTypePtr RowType() const;
  /// Order-sensitive 64-bit digest over every cell.
  uint64_t Digest() const;
};

struct Dataset {
  std::vector<TableData> tables;  // region, nation, supplier, part,
                                  // customer, orders, lineitem

  const TableData& table(const std::string& name) const;
  size_t total_rows() const;
};

Dataset Generate(double scale_factor, uint64_t seed);

/// A catalog ready for queries, plus what built it.
struct Catalog {
  calcite::SchemaPtr schema;
  /// The DiskTables of a disk catalog (empty for a memory catalog).
  std::vector<std::shared_ptr<calcite::storage::DiskTable>> disk_tables;
};

/// MemTables with the row count and the unique key set.
Catalog BuildMemCatalog(const Dataset& data);

/// Time the disk catalog build spent in each storage call.
struct DiskBuildTimes {
  double insert_s = 0;
  double analyze_s = 0;
  double flush_s = 0;
};

/// One DiskTable per table under `dir` (default pool and page-run sizes):
/// InsertRows, then Analyze, then Flush.
calcite::Result<Catalog> BuildDiskCatalog(const Dataset& data,
                                          const std::string& dir,
                                          DiskBuildTimes* times);

/// Heap bytes the boxed rows of a memory catalog hold, per row.
double MemBytesPerRow(const Dataset& data);

/// Total disk reads and writes of a disk catalog's buffer pools.
uint64_t DiskReads(const Catalog& catalog);
uint64_t DiskWrites(const Catalog& catalog);

}  // namespace sqlbench

#endif  // SQLBENCH_TPCH_H_
