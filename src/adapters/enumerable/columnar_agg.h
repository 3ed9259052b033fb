#ifndef CALCITE_ADAPTERS_ENUMERABLE_COLUMNAR_AGG_H_
#define CALCITE_ADAPTERS_ENUMERABLE_COLUMNAR_AGG_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "adapters/enumerable/aggregates.h"
#include "exec/column_batch.h"
#include "exec/key_table.h"
#include "rel/rel_node.h"
#include "type/value.h"
#include "util/status.h"

namespace calcite {

/// Columnar hash-aggregate state: consumes ColumnBatches straight off the
/// columnar hot path, resolving group ids in a KeyTable and feeding the
/// typed adders of AggAccumulator without boxing non-NULL cells. Any number
/// of group keys: none (a global aggregate), one or several (composite keys
/// hash column-at-a-time; a key is boxed only when its group is new).
///
/// The produced groups match the row-path hash aggregate exactly: first-seen
/// key order, Value-equality group unification (Int(2) and Double(2.0) land
/// in the same group), NULLs form their own group, and accumulator state is
/// bit-for-bit what the per-row Add() calls would have built (the parity
/// suite enforces this).
///
/// With every column as a group key and no calls, the key table alone is
/// what the columnar set operators use: ResolveKeys maps each row to the id
/// of its distinct value.
class ColumnarAggBuilder {
 public:
  /// `calls` are copied; the builder is self-contained after construction.
  ColumnarAggBuilder(std::vector<int> group_keys,
                     std::vector<AggregateCall> calls)
      : group_keys_(std::move(group_keys)),
        calls_(std::move(calls)),
        keys_(std::max<size_t>(group_keys_.size(), 1),
              /*null_keys_match=*/true) {}

  ColumnarAggBuilder(const ColumnarAggBuilder&) = delete;
  ColumnarAggBuilder& operator=(const ColumnarAggBuilder&) = delete;

  /// Feeds the active rows of one batch. Not callable after EmitBatch.
  Status Feed(const ColumnBatch& batch);

  /// Resolves the group id of every active row of `batch`, creating groups
  /// on first sight, without feeding any call. Ids are dense and assigned
  /// in first-seen order; the result is valid until the next Feed or
  /// ResolveKeys.
  const std::vector<uint32_t>& ResolveKeys(const ColumnBatch& batch);

  size_t num_groups() const { return num_groups_; }

  /// Folds another builder's groups into this one (parallel merge step).
  /// Both builders must have been created with the same keys and calls.
  Status MergeFrom(const ColumnarAggBuilder& other);

  /// Emits up to `batch_size` result rows (group key columns then one value
  /// per aggregate call, in first-seen group order) as a dense ColumnBatch
  /// typed by `row_type`: the finished cells go through RowsToColumns, so a
  /// column whose cells do not all fit its declared class (Int(2) kept as a
  /// DOUBLE group key) stays boxed. The first call finalizes: a global
  /// aggregate over empty input materializes its one row here. An AtEnd()
  /// batch means all groups have been emitted.
  Result<ColumnBatch> EmitBatch(size_t batch_size, const RelDataType& row_type);

 private:
  /// Appends accumulators for every group the key table opened since the
  /// last call.
  void AddNewGroups();

  /// Feeds call `call_idx` for every active row of `batch`, using the group
  /// ids `gids` ResolveKeys produced for it.
  Status FeedCall(const ColumnBatch& batch, const std::vector<uint32_t>& gids,
                  size_t call_idx);

  std::vector<int> group_keys_;  // empty for a global aggregate
  std::vector<AggregateCall> calls_;
  KeyTable keys_;  // unused by a global aggregate

  // Groups in first-seen order: accumulators (groups x calls, row-major)
  // and, once finalized, the key cells moved out of keys_.
  size_t num_groups_ = 0;
  std::vector<AggAccumulator> accs_;
  std::vector<uint32_t> global_gids_;  // all-zero ids of a global aggregate
  std::vector<Value> emit_keys_;
  size_t emit_pos_ = 0;
  bool finalized_ = false;
};

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_ENUMERABLE_COLUMNAR_AGG_H_
