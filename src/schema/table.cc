#include "schema/table.h"

#include <algorithm>
#include <utility>

namespace calcite {

namespace {

Status NoScanUnits() {
  return Status::InvalidArgument("table has no paged scan surface");
}

}  // namespace

Result<RowBatchPuller> Table::OpenScan(const ScanSpec& raw_spec) const {
  ScanSpec spec = raw_spec.Normalized();
  if (spec.has_unit_range()) return NoScanUnits();
  auto scanned = Scan();
  if (!scanned.ok()) return scanned.status();
  std::vector<Row> rows = std::move(scanned).value();
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [&spec](const Row& row) {
                              return !ScanPredicatesMatch(spec.predicates,
                                                          row);
                            }),
             rows.end());
  return ApplyScanSpecDecorators(ChunkRows(std::move(rows), spec.batch_size),
                                 spec);
}

Result<RowBatchPuller> MemTable::OpenScan(const ScanSpec& raw_spec) const {
  ScanSpec spec = raw_spec.Normalized();
  if (spec.has_unit_range()) return NoScanUnits();
  return ApplyScanSpecDecorators(
      FilterSliceRows(rows_, spec.batch_size, std::move(spec.predicates)),
      spec);
}

}  // namespace calcite
