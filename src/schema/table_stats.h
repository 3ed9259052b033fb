#ifndef CALCITE_SCHEMA_TABLE_STATS_H_
#define CALCITE_SCHEMA_TABLE_STATS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "exec/row_batch.h"
#include "plan/traits.h"
#include "type/value.h"

namespace calcite {

/// Small equi-width histogram over a column's non-NULL numeric values,
/// built by ANALYZE (schema/analyze.h). Buckets hold *fractions* of the
/// observed non-NULL values (they sum to ~1), so a histogram built from a
/// sample estimates the full table directly. Values are treated as a
/// continuous distribution: range selectivity interpolates linearly within
/// the bucket containing the probe, which is exact for uniform data and a
/// bounded-error approximation otherwise.
struct Histogram {
  /// Inclusive value range covered by the buckets; each bucket spans
  /// (hi - lo) / buckets.size().
  double lo = 0.0;
  double hi = 0.0;
  /// Fraction of observed non-NULL values per bucket.
  std::vector<double> buckets;

  bool empty() const { return buckets.empty(); }

  /// Estimated fraction of non-NULL values strictly below `x` (continuous
  /// interpretation, so P(v < x) == P(v <= x)). Clamps to [0, 1]; 0 for an
  /// empty histogram.
  double FractionBelow(double x) const;
};

/// Per-column statistics collected by ANALYZE. `analyzed()` distinguishes
/// "never analyzed" (all defaults) from a genuinely empty/all-NULL column.
struct ColumnStats {
  /// Minimum / maximum non-NULL value seen; NULL when the column had no
  /// non-NULL values (or the column was not analyzed).
  Value min;
  Value max;
  /// Fraction of rows where this column is NULL.
  double null_fraction = 0.0;
  /// Estimated number of distinct non-NULL values (KMV sketch; exact for
  /// low-cardinality columns). 0 means unknown.
  double ndv = 0.0;
  /// Equi-width histogram over non-NULL numeric values; empty for
  /// non-numeric columns or when not analyzed.
  Histogram histogram;
  /// True once ANALYZE has populated this entry.
  bool analyzed = false;
};

/// Statistics a table exposes to the optimizer's metadata providers (§6:
/// "for many of them, it is sufficient to provide statistics about their
/// input data, e.g., number of rows and size of a table, whether values for
/// a given column are unique etc., and Calcite will do the rest").
///
/// The declarative fields (unique_keys, collations, monotonic_columns) are
/// supplied by adapters; row_count and the per-column entries are either
/// adapter-supplied or collected by ANALYZE (schema/analyze.h). `version`
/// stamps the stats format for persistence (DiskTable catalog pages): 0
/// means never analyzed, kFormatVersion is what ANALYZE writes today, and a
/// reader seeing a newer version than it understands treats the table as
/// unanalyzed rather than misreading the payload.
struct TableStats {
  /// Stats format version written by this build's ANALYZE.
  static constexpr uint32_t kFormatVersion = 1;

  /// Estimated row count; nullopt means unknown (the default provider then
  /// assumes a fixed guess).
  std::optional<double> row_count;
  /// Sets of columns that form unique keys.
  std::vector<std::vector<int>> unique_keys;
  /// Orderings the physical data is known to satisfy (e.g. Cassandra rows
  /// sorted by clustering key within a partition).
  std::vector<RelCollation> collations;
  /// Columns known to be monotonically increasing across the scan — e.g. a
  /// stream's rowtime. Required by streaming window validation (§7.2).
  std::vector<int> monotonic_columns;

  /// Per-column ANALYZE results, indexed by column ordinal; empty until
  /// ANALYZE runs.
  std::vector<ColumnStats> columns;
  /// Stats format version these column entries were collected under
  /// (0 = never analyzed).
  uint32_t version = 0;

  bool IsKey(const std::vector<int>& columns) const;

  /// True once per-column statistics exist.
  bool analyzed() const { return version != 0 && !columns.empty(); }

  /// The stats for column `i`, or nullptr when not analyzed / out of range.
  const ColumnStats* column(int i) const {
    if (i < 0 || static_cast<size_t>(i) >= columns.size()) return nullptr;
    const ColumnStats& cs = columns[static_cast<size_t>(i)];
    return cs.analyzed ? &cs : nullptr;
  }
};

/// Estimated fraction of a table's rows satisfying `pred`, from the stats
/// of the predicate's column. nullopt when the stats cannot say anything
/// (column not analyzed, non-numeric range probe with no histogram, ...);
/// the caller then falls back to the fixed default guesses. The estimate
/// accounts for NULLs: comparisons never match NULL rows, so every
/// comparison selectivity is scaled by (1 - null_fraction).
std::optional<double> EstimatePredicateSelectivity(const ColumnStats& stats,
                                                   const ScanPredicate& pred);

}  // namespace calcite

#endif  // CALCITE_SCHEMA_TABLE_STATS_H_
