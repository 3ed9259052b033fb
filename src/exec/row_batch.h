#ifndef CALCITE_EXEC_ROW_BATCH_H_
#define CALCITE_EXEC_ROW_BATCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "type/value.h"
#include "util/status.h"

namespace calcite {

/// Vectorized execution runtime (§5, §7.4). The enumerable calling
/// convention originally pulled one Row per call; operators now exchange
/// RowBatch chunks so the per-call dispatch cost (a std::function invocation
/// plus error-wrapping) is amortized over ~1024 rows. `batch_size = 1`
/// degenerates to the old row-at-a-time discipline and must preserve its
/// semantics exactly — the parity test suite enumerates both modes and
/// compares results.

/// A chunk of rows flowing between physical operators.
using RowBatch = std::vector<Row>;

/// Default number of rows per batch. Chosen so a batch of small rows stays
/// cache-resident while still amortizing per-batch dispatch overhead.
inline constexpr size_t kDefaultBatchSize = 1024;

/// Upper clamp for batch_size. Columnar arena chunks are sized for batches,
/// so a pathological batch_size (e.g. SIZE_MAX from a config typo) must not
/// translate into a single giant allocation attempt; 64Ki rows is far past
/// the point where larger batches stop paying.
inline constexpr size_t kMaxBatchSize = 1u << 16;

/// How a leaf scan picks its physical access path when a table offers more
/// than one (today: DiskTable's B-tree index-range scan vs full heap scan).
///
///  - kAuto: cost-based — after ANALYZE the table compares the estimated
///    selectivity of the pushed key range against the calibrated break-even
///    and routes accordingly; without statistics it falls back to the
///    legacy "index whenever a key range derives" rule.
///  - kForceIndex: index-range scan whenever the pushed predicates bound
///    the key at all (the pre-statistics behavior).
///  - kForceHeap: always the full heap scan.
///
/// Tables with a single access path ignore the hint.
enum class AccessPath { kAuto, kForceIndex, kForceHeap };

/// Runtime options threaded from the Connection down to the leaf scans.
struct ExecOptions {
  size_t batch_size = kDefaultBatchSize;
  /// Degree of parallelism for the morsel-driven executor
  /// (src/exec/parallel/): eligible plan fragments — scan→filter→project
  /// pipelines, hash aggregates, hash joins — run on this many columnar
  /// worker threads, exchanged back into the single-consumer pull protocol
  /// by a gather operator. 1 (the default) keeps fully serial execution and
  /// its exact row ordering; > 1 trades deterministic row order within
  /// unordered fragments for throughput.
  size_t num_threads = 1;

  /// When true (the default), Filter, Project and Aggregate always run the
  /// column-major ColumnBatch kernels (exec/column_batch.h), at any thread
  /// count: leaf scans produce typed column views, row-producing inputs are
  /// decoded into columns, and rows are only materialized at the conversion
  /// boundary. Turning it off selects the serial per-row reference engine
  /// (RexInterpreter::Eval, per-row aggregate accumulation, row join
  /// probes), and the morsel-parallel executor (which is columnar-only) is
  /// bypassed whatever num_threads says. The differential parity suites
  /// execute queries both ways.
  bool enable_columnar = true;

  /// Ignored: no code reads it. Columnar expression evaluation always runs
  /// through FusedExpr (rex/rex_fuse.h) and pushed scan predicates always
  /// fuse their range pairs. The field stays declared only because the SQL
  /// benchmark's reference configuration (sqlbench/main.cc) still assigns
  /// it, next to enable_columnar = false.
  bool enable_fusion = true;

  /// Access-path hint handed to every leaf scan (via ScanSpec). kAuto is
  /// the cost-based default; the forced settings exist for benchmarks,
  /// plan-stability debugging, and the differential parity suites.
  AccessPath access_path = AccessPath::kAuto;

  /// Both knobs clamped to their valid range: a zero batch_size would make
  /// every puller yield the empty batch that means end-of-stream (hanging
  /// or truncating pipelines), and zero worker threads could never pull
  /// anything, so both clamp to 1. batch_size additionally clamps to
  /// kMaxBatchSize: arena chunk sizing scales with the batch, so a
  /// pathological upper bound must not become a giant allocation. An
  /// access_path outside the enum (a config cast gone wrong) degrades to
  /// kAuto. Every execution entry point normalizes its options before
  /// building pipelines.
  ExecOptions Normalized() const {
    ExecOptions out = *this;
    if (out.batch_size == 0) out.batch_size = 1;
    if (out.batch_size > kMaxBatchSize) out.batch_size = kMaxBatchSize;
    if (out.num_threads == 0) out.num_threads = 1;
    if (out.access_path != AccessPath::kForceIndex &&
        out.access_path != AccessPath::kForceHeap) {
      out.access_path = AccessPath::kAuto;
    }
    return out;
  }
};

/// Pulls the next batch of an operator's output. An empty batch marks the
/// end of the stream; producers never yield empty batches mid-stream (a
/// filter that eliminates a whole input chunk keeps pulling until it has at
/// least one surviving row or its input ends). Errors abort the stream.
///
/// RowBatch is no longer the only batch currency: the hot path ships
/// column-major ColumnBatch (exec/column_batch.h) — typed column vectors
/// plus null bytemaps, bump-allocated from a per-query arena and freed
/// wholesale — between converted operators (scan, filter, project,
/// hash-aggregate, hash-join probe, every morsel-parallel worker). A
/// RowBatchPuller is the *conversion boundary*: operators that still think
/// in rows (sort, outer-join emit, set ops, window, QueryResult) pull row
/// batches, and a columnar producer boxes its active rows through
/// ColumnsToRows exactly once at that boundary; in the other direction a
/// row producer under a columnar consumer is decoded through RowsToColumns
/// one batch at a time. Arena lifetime rule: a
/// ColumnBatch shares ownership of everything its columns point into
/// (arena, boxed pool, pinned table caches), so a row batch built from it
/// owns plain Values and has no lifetime ties.
using RowBatchPuller = std::function<Result<RowBatch>()>;

/// Indexes of the live rows of a ColumnBatch, strictly ascending: filters
/// narrow it (FusedExpr::NarrowSelection, leaf pushdown) instead of
/// compacting, so downstream operators iterate only the selected
/// indexes and survivors are never moved.
using SelectionVector = std::vector<uint32_t>;

/// A predicate simple enough for a leaf scan to evaluate on its stored rows
/// *before* materializing them into a batch: `column <op> literal` or a
/// NULL test. Comparison semantics match the Rex interpreter exactly
/// (Value::Compare three-way ordering; a comparison involving NULL — on
/// either side — never passes), so each pushed predicate accepts exactly
/// the rows the post-scan filter would have. Note that pushdown evaluates
/// pushed conjuncts before residual ones regardless of their position in
/// the original AND: result rows are identical (AND is commutative), but a
/// residual conjunct that would have raised an evaluation error (e.g.
/// division by zero) on a row a *later* pushed conjunct eliminates no
/// longer sees that row — the same conjunct-reordering latitude SQL
/// engines generally take, and that the selection-narrowing filter already
/// takes between stacked conjuncts.
struct ScanPredicate {
  enum class Kind {
    kEquals,
    kNotEquals,
    kLessThan,
    kLessThanOrEqual,
    kGreaterThan,
    kGreaterThanOrEqual,
    kIsNull,
    kIsNotNull,
  };
  Kind kind = Kind::kEquals;
  int column = 0;
  Value literal;  // ignored by the NULL tests

  bool Matches(const Row& row) const;
};

using ScanPredicateList = std::vector<ScanPredicate>;

/// True iff every predicate passes (empty list passes everything).
bool ScanPredicatesMatch(const ScanPredicateList& predicates, const Row& row);

/// Everything a leaf scan needs to know, in one struct — the single
/// currency of Table::OpenScan, the one scan entry point: new per-scan
/// knobs (sampling for ANALYZE, projection hints, access-path forcing) are
/// fields here, not new virtuals on Table.
struct ScanSpec {
  /// Sentinel for unit_end: no unit restriction.
  static constexpr size_t kAllUnits = static_cast<size_t>(-1);

  /// Rows per yielded batch (clamped like ExecOptions::batch_size).
  size_t batch_size = kDefaultBatchSize;

  /// Pushed predicates, evaluated before rows are materialized. Result rows
  /// satisfy every predicate.
  ScanPredicateList predicates;

  /// When non-empty, result rows contain exactly these input columns, in
  /// this order. Applied after the predicates (which index the full row).
  std::vector<int> projection;

  /// Bernoulli row sampling: each predicate-passing row survives with this
  /// probability, drawn from a deterministic RNG seeded by sample_seed —
  /// the ANALYZE sampling path. 1.0 (the default) keeps every row.
  double sample_fraction = 1.0;
  uint64_t sample_seed = 0x5DEECE66Dull;

  /// Physical access-path hint for tables with more than one (see
  /// AccessPath). Threaded from ExecOptions::access_path by the scan
  /// operators.
  AccessPath access_path = AccessPath::kAuto;

  /// Restricts the scan to units [unit_begin, unit_end) of the table's
  /// paged scan surface (ScanUnitCount tiling) — the morsel-driven parallel
  /// executor reads one unit per morsel this way. Only meaningful for
  /// tables that expose scan units; unit_begin past the unit count, or any
  /// unit range on a table without units, is InvalidArgument.
  size_t unit_begin = 0;
  size_t unit_end = kAllUnits;

  bool has_unit_range() const {
    return unit_begin != 0 || unit_end != kAllUnits;
  }
  bool IsPlainScan() const {
    return predicates.empty() && projection.empty() &&
           sample_fraction >= 1.0 && !has_unit_range();
  }

  /// Clamps batch_size (like ExecOptions), sample_fraction to [0, 1], and
  /// out-of-enum access paths to kAuto.
  ScanSpec Normalized() const;
};

/// Applies the row-level decorations of `spec` that are independent of the
/// table's physical access path — Bernoulli sampling, then projection — on
/// top of an already predicate-filtered batch stream. Table::OpenScan
/// implementations route their native pullers through this so every table
/// honours sampling/projection identically; it preserves the
/// producers-never-yield-empty-mid-stream contract (a sampled-out chunk
/// keeps pulling). Pass-through (no wrapper allocated) when the spec asks
/// for neither.
RowBatchPuller ApplyScanSpecDecorators(RowBatchPuller puller,
                                       const ScanSpec& spec);

/// Batch stream over caller-owned rows that applies `predicates` before
/// copying a row into the output batch — the leaf-scan pushdown path: rows
/// failing the predicates are never materialized. Same lifetime contract as
/// SliceRows.
RowBatchPuller FilterSliceRows(const std::vector<Row>& rows, size_t batch_size,
                               ScanPredicateList predicates);

/// Wraps already-materialized rows as a batch stream (the bridge used by
/// operators and tables that have not been converted to native batching).
RowBatchPuller ChunkRows(std::vector<Row> rows, size_t batch_size);

/// Batch stream over rows the caller keeps owning (a table's stored data):
/// each pull copies the next slice of `rows` into a fresh batch, so the
/// stored vector is never copied whole. The caller must keep `rows` alive
/// and unchanged while the puller is used — scan operators guarantee this
/// by pinning their TablePtr in the pipeline closure.
RowBatchPuller SliceRows(const std::vector<Row>& rows, size_t batch_size);

/// Materializes a batch stream (the terminal step under the unchanged
/// QueryResult API).
Result<std::vector<Row>> DrainBatches(const RowBatchPuller& puller);

}  // namespace calcite

#endif  // CALCITE_EXEC_ROW_BATCH_H_
