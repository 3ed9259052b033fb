#ifndef CALCITE_ADAPTERS_ENUMERABLE_COLUMNAR_AGG_H_
#define CALCITE_ADAPTERS_ENUMERABLE_COLUMNAR_AGG_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "adapters/enumerable/aggregates.h"
#include "exec/column_batch.h"
#include "rel/rel_node.h"
#include "type/value.h"
#include "util/status.h"

namespace calcite {

/// Columnar hash-aggregate state: consumes ColumnBatches straight off the
/// columnar hot path, resolving group ids and feeding the typed adders of
/// AggAccumulator without boxing non-NULL cells. Any number of group keys:
/// none (a global aggregate), one (typed-column fast path below), or several
/// (composite keys resolve through a boxed key Row).
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
      : group_keys_(std::move(group_keys)), calls_(std::move(calls)) {}

  ColumnarAggBuilder(const ColumnarAggBuilder&) = delete;
  ColumnarAggBuilder& operator=(const ColumnarAggBuilder&) = delete;

  /// Feeds the active rows of one batch.
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
  /// per aggregate call, in first-seen group order). The first call
  /// finalizes: a global aggregate over empty input materializes its one
  /// row here. An empty batch means all groups have been emitted.
  RowBatch EmitBatch(size_t batch_size);

 private:
  /// Appends a new group (its accumulators; the caller appends its key
  /// values) and returns its id.
  uint32_t NewGroup();

  /// Group id for boxed single-column key `key`, creating the group on
  /// first sight.
  uint32_t GroupIdForValue(const Value& key);

  /// Group id for composite key `key` (one Value per group key), creating
  /// the group on first sight.
  uint32_t GroupIdForRow(const Row& key);

  /// Probe-miss slow path: resolves cell `key[row]` through the
  /// authoritative boxed table, then fills the empty `slot` with
  /// (hash, raw-bit image, gid), growing the table when past the load
  /// factor. `raw`/`exact` are the probe loop's bit image of the cell;
  /// exactness is withdrawn here for NaN so a stored image never
  /// bit-matches a cell the boxed semantics would not group.
  uint32_t InsertHashed(const ColumnVector& key, size_t row, uint64_t hash,
                        uint64_t raw, bool exact, size_t slot);

  /// True when the raw cell `key[row]` equals group `gid`'s key under Value
  /// equality semantics (numeric cross-representation, string bytes).
  bool CellMatchesGroup(const ColumnVector& key, size_t row,
                        uint32_t gid) const;

  void RehashSlots();

  /// Feeds call `call_idx` for every active row of `batch`, using the group
  /// ids already resolved into gids_ by ResolveKeys.
  Status FeedCall(const ColumnBatch& batch, size_t call_idx);

  std::vector<int> group_keys_;  // empty for a global aggregate
  std::vector<AggregateCall> calls_;

  // Authoritative group tables, keyed by the boxed key: group_index_ for a
  // single key column, row_index_ for composite keys (Value hash/equality
  // unifies numerically-equal ints and doubles, and gives NULL one group).
  std::unordered_map<Value, uint32_t, ValueHash> group_index_;
  std::unordered_map<Row, uint32_t, RowHash> row_index_;

  // Fast path for typed key columns: a flat open-addressing table (linear
  // probing, power-of-two capacity, gid_plus_1 == 0 marks an empty slot)
  // probed with hashes precomputed for the whole batch by HashColumn.
  // Populated lazily from the authoritative table so both stay consistent;
  // HashColumn/HashValue64 agreeing on numerically-equal values is what
  // lets a raw double probe find a group opened by an int (and vice versa).
  // `raw`/`raw_type` carry the bit image of the cell that filled the slot:
  // a probe whose cell has the same physical type and identical bits can
  // accept without touching the boxed group key (the common case); any
  // mismatch — cross-representation int/double, +0.0 vs -0.0, strings,
  // slots marked inexact — falls back to CellMatchesGroup, so the fast
  // accept only ever short-circuits comparisons it cannot get wrong.
  struct HashSlot {
    uint64_t hash = 0;
    uint64_t raw = 0;
    uint32_t gid_plus_1 = 0;
    uint8_t raw_type = 0;  // PhysType of raw; kValue = no fast accept
  };
  std::vector<HashSlot> hash_slots_;
  size_t hash_count_ = 0;
  std::vector<uint64_t> hashes_;  // per-Feed scratch for HashColumn

  // Groups in first-seen order: key values (groups x keys) and
  // accumulators (groups x calls), both row-major.
  size_t num_groups_ = 0;
  std::vector<Value> group_key_values_;
  std::vector<AggAccumulator> accs_;
  std::vector<uint32_t> gids_;                  // per-Feed scratch
  size_t emit_pos_ = 0;
  bool finalized_ = false;
};

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_ENUMERABLE_COLUMNAR_AGG_H_
