#ifndef CALCITE_EXEC_PARALLEL_PARALLEL_EXEC_H_
#define CALCITE_EXEC_PARALLEL_PARALLEL_EXEC_H_

#include <optional>

#include "exec/column_batch.h"
#include "rel/rel_node.h"

namespace calcite {

/// Entry point of the morsel-driven parallel executor. The enumerable
/// convention's single path choice (ColumnarOutput in
/// adapters/enumerable/enumerable_rels.cc) calls TryExecuteParallelColumns
/// before a node's own columnar path: when `opts.num_threads > 1` and the
/// plan fragment rooted at `node` has a parallel physical path, it returns
/// a puller that runs the fragment on a worker pool and gathers its
/// ColumnBatches back into the single-consumer pull protocol. The decision is made before returning: nullopt means the
/// fragment declined and the caller runs its serial operators (whose
/// *inputs* may still parallelize recursively). A fragment declines when
/// num_threads is 1, when its shape is not parallelizable, when its leaf
/// table has neither a columnar decomposition nor scan units (Values
/// leaves, Scan()-only tables), when the table fits in one morsel, or when
/// it is a bare in-memory scan, whose zero-copy slices would only cross
/// the exchange. The caller only asks with `opts.enable_columnar` on: the
/// serial per-row reference engine never parallelizes.
///
/// Every worker is columnar: one per-worker morsel reader claims a morsel,
/// turns it into ColumnBatches — zero-copy slices of the table's
/// MaterializedColumns, or, for paged tables such as DiskTable, one
/// unit-ranged OpenScan per scan unit decoded through RowsToColumns — and
/// runs the fragment's filter/project chain on them through FusedExpr, as
/// the serial pipelines do. A Filter right above the scan is split like the
/// serial one (SplitPushdown): its simple conjuncts narrow the leaf
/// batches (or ride the unit-ranged OpenScan) and only the residual is a
/// stage. Parallel physical paths:
///  - Morsel-driven pipelines: (Filter|Project)* over a TableScan leaf.
///    Workers exchange their surviving ColumnBatches to the consumer, which
///    hands them to a columnar consumer (Filter, Project, Aggregate, Sort,
///    set ops, both sides of a hash join) unboxed; only a row consumer
///    boxes them.
///  - Partitioned hash aggregate: the same pipeline shape under an
///    enumerable Aggregate. Workers feed worker-local ColumnarAggBuilders;
///    the consumer merges them (accumulator merge, not re-aggregation) and
///    emits the merged groups as ColumnBatches.
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

/// The fragment rooted at `node` (a pipeline, or an aggregate over one) as
/// gathered ColumnBatches, or nullopt when it declines.
std::optional<Result<ColumnBatchPuller>> TryExecuteParallelColumns(
    const RelNode& node, const ExecOptions& opts);

}  // namespace calcite

#endif  // CALCITE_EXEC_PARALLEL_PARALLEL_EXEC_H_
