#ifndef CALCITE_EXEC_KEY_TABLE_H_
#define CALCITE_EXEC_KEY_TABLE_H_

#include <cstdint>
#include <vector>

#include "exec/column_batch.h"
#include "type/value.h"

namespace calcite {

/// The engine's hash table from key tuples to dense ids: the group table of
/// the columnar aggregate, the key table of the columnar set ops, and the
/// build side of the columnar hash join. Ids are assigned 0, 1, 2, ... in
/// first-seen order.
///
/// Equality is Value equality (Value::Compare == 0): Int(2) and Double(2.0)
/// are one key, -0.0 is 0, strings compare bytewise, and NaN keys unify
/// exactly when boxed Value hash tables unify them (same bit image). Every
/// stored key keeps the boxed cells it was first seen with; those boxed
/// cells are the authority every match is verified against, unless a probe
/// cell's typed bit image equals the one stored in its slot (the typed fast
/// accept, which never accepts a cell that Value equality would reject).
///
/// The index is a flat open-addressing table (linear probing, power-of-two
/// capacity) keyed by key-tuple hashes (HashKeyColumns), so batches probe
/// it column-at-a-time without boxing a cell: a key is boxed once, when it
/// is first inserted. Every stored key has a slot, so a probe miss is final.
///
/// With `null_keys_match` false (joins), a tuple with a NULL cell is never
/// stored or found: SQL equality never matches NULL.
class KeyTable {
 public:
  static constexpr uint32_t kNoId = 0xffffffffu;

  /// `width` cells per key tuple (at least one).
  KeyTable(size_t width, bool null_keys_match)
      : width_(width), null_keys_match_(null_keys_match) {}

  size_t size() const { return num_keys_; }
  size_t width() const { return width_; }

  /// The id of every active row's key — the cells of `batch` in columns
  /// `cols` (width() of them) — inserting unseen keys. ids[k] belongs to
  /// active row k. Valid until the next call on this table.
  const std::vector<uint32_t>& Resolve(const ColumnBatch& batch,
                                       const std::vector<int>& cols);

  /// Resolve without inserting: an unseen key gets kNoId.
  const std::vector<uint32_t>& Find(const ColumnBatch& batch,
                                    const std::vector<int>& cols);

  /// The id of the boxed key `key[0..width)`, inserting it when unseen
  /// (kNoId for a NULL cell when NULL keys never match).
  uint32_t ResolveValues(const Value* key);

  /// The boxed cells of key `id` (width() of them).
  const Value* key(uint32_t id) const { return &keys_[id * width_]; }

  /// Moves the boxed cells of every key out, row-major (size() x width()).
  /// The table must not be used afterwards.
  std::vector<Value> TakeKeys() { return std::move(keys_); }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint64_t raw = 0;        // typed bit image of the key's single cell
    uint32_t id_plus_1 = 0;  // 0 marks an empty slot
    uint8_t raw_type = 0;    // PhysType of raw; kValue = no fast accept
  };

  template <bool kInsert>
  const std::vector<uint32_t>& Probe(const ColumnBatch& batch,
                                     const std::vector<int>& cols);

  /// Appends key `id` = size() and claims the empty `slot` for it.
  uint32_t Insert(uint64_t hash, uint64_t raw, uint8_t raw_type,
                  size_t slot);
  /// True when row `row`'s key cells equal stored key `id`.
  bool RowMatches(const ColumnBatch& batch, const std::vector<int>& cols,
                  size_t row, uint32_t id) const;
  void Grow();

  size_t width_;
  bool null_keys_match_;
  size_t num_keys_ = 0;
  std::vector<Value> keys_;  // size() x width, row-major
  std::vector<Slot> slots_;
  std::vector<uint32_t> ids_;          // per-call result
  std::vector<uint64_t> hashes_;       // per-block scratch
  std::vector<uint64_t> cell_hashes_;  // composite-key scratch
};

}  // namespace calcite

#endif  // CALCITE_EXEC_KEY_TABLE_H_
