#ifndef CALCITE_EXEC_PARALLEL_PARALLEL_EXEC_H_
#define CALCITE_EXEC_PARALLEL_PARALLEL_EXEC_H_

#include <optional>

#include "exec/column_batch.h"
#include "exec/row_batch.h"
#include "rel/rel_node.h"

namespace calcite {

/// Entry points of the morsel-driven parallel executor. The enumerable
/// convention's ExecuteBatched implementations call TryExecuteParallel, and
/// the columnar operators' input lift (LiftToColumns) calls
/// TryExecuteParallelColumns and then TryExecuteParallel, before they build
/// their serial pipeline: when `opts.num_threads > 1` and the plan fragment
/// rooted at `node` has a parallel physical path, they return a puller that
/// runs it on a worker pool and gathers the results back into the
/// single-consumer pull protocol. The decision is made before returning:
/// nullopt means the fragment declined and the caller runs its serial
/// operators (whose *inputs* may still parallelize recursively). A fragment
/// declines when num_threads is 1, when `opts.enable_columnar` is off (the
/// serial per-row reference engine), when its shape is not
/// parallelizable, or when its leaf table has neither a columnar
/// decomposition nor scan units (Values leaves, Scan()-only tables).
///
/// Every worker is columnar: one per-worker morsel reader claims a morsel,
/// turns it into ColumnBatches — zero-copy slices of the table's
/// MaterializedColumns, or, for paged tables such as DiskTable, one
/// unit-ranged OpenScan per scan unit decoded through RowsToColumns — and
/// runs the fragment's filter/project chain on them with the same columnar
/// kernels as the serial pipelines. Parallel physical paths:
///  - Morsel-driven pipelines: (Filter|Project)* over a TableScan leaf.
///    Workers exchange their surviving ColumnBatches to the consumer, which
///    hands them to a columnar consumer (Filter, Project, Aggregate, Sort,
///    set ops, both sides of a hash join) unboxed; only a row consumer
///    boxes them.
///  - Partitioned hash aggregate: the same pipeline shape under an
///    Aggregate. Workers feed worker-local ColumnarAggBuilders; the consumer
///    merges them (accumulator merge, not re-aggregation) and emits the
///    merged groups.
/// Joins run serially over such parallel inputs.
///
/// Ordering: fragments executed in parallel do not preserve row order —
/// workers race for morsels and the exchange interleaves their output. SQL
/// semantics are unaffected (ORDER BY sorts downstream of the fragment);
/// unordered query output may permute between runs.
///
/// Errors cancel the fragment: the first failing worker records its Status
/// in the fragment's QueryCancelState, every other worker stops at the next
/// morsel or exchange operation, and the gather puller surfaces that first
/// Status to the query.

/// Pipeline fragments only, as the gathered ColumnBatches.
std::optional<Result<ColumnBatchPuller>> TryExecuteParallelColumns(
    const RelNode& node, const ExecOptions& opts);

/// Pipeline and aggregate fragments, as rows.
std::optional<Result<RowBatchPuller>> TryExecuteParallel(
    const RelNode& node, const ExecOptions& opts);

}  // namespace calcite

#endif  // CALCITE_EXEC_PARALLEL_PARALLEL_EXEC_H_
