#include "adapters/enumerable/columnar_agg.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

namespace calcite {

namespace {
constexpr size_t kInitialHashSlots = 64;  // power of two

// Rows hashed per HashColumn block: large enough to amortize the kernel
// dispatch, small enough that the 8-byte-per-row hash scratch (32 KiB)
// stays cache-resident instead of evicting the key/argument columns on
// oversized batches.
constexpr size_t kHashBlockRows = 4096;

// `col` shifted forward by `base` rows (pointer-advance view; the result
// must not outlive `col`'s storage).
ColumnVector ShiftColumn(const ColumnVector& col, size_t base) {
  ColumnVector v = col;
  if (v.i64 != nullptr) v.i64 += base;
  if (v.f64 != nullptr) v.f64 += base;
  if (v.b8 != nullptr) v.b8 += base;
  if (v.str != nullptr) v.str += base;
  if (v.boxed != nullptr) v.boxed += base;
  if (v.nulls != nullptr) v.nulls += base;
  return v;
}
}  // namespace

uint32_t ColumnarAggBuilder::NewGroup() {
  const uint32_t gid = static_cast<uint32_t>(num_groups_++);
  for (const AggregateCall& call : calls_) {
    accs_.emplace_back(call);
  }
  return gid;
}

uint32_t ColumnarAggBuilder::GroupIdForValue(const Value& key) {
  auto it = group_index_.find(key);
  if (it != group_index_.end()) return it->second;
  const uint32_t gid = NewGroup();
  group_key_values_.push_back(key);
  group_index_.emplace(key, gid);
  return gid;
}

uint32_t ColumnarAggBuilder::GroupIdForRow(const Row& key) {
  auto it = row_index_.find(key);
  if (it != row_index_.end()) return it->second;
  const uint32_t gid = NewGroup();
  group_key_values_.insert(group_key_values_.end(), key.begin(), key.end());
  row_index_.emplace(key, gid);
  return gid;
}

bool ColumnarAggBuilder::CellMatchesGroup(const ColumnVector& key, size_t row,
                                          uint32_t gid) const {
  const Value& v = group_key_values_[gid];
  switch (key.type) {
    case PhysType::kInt64: {
      // Mirrors Value::Compare: int-int exact, cross-representation as
      // double (so a raw 2 matches a group opened by Double(2.0)).
      const int64_t c = key.i64[row];
      if (v.is_int()) return v.AsInt() == c;
      return v.is_double() && v.AsDouble() == static_cast<double>(c);
    }
    case PhysType::kDouble:
      return v.is_numeric() && v.AsDouble() == key.f64[row];
    case PhysType::kString:
      return v.is_string() &&
             std::string_view(v.AsString()) == key.str[row].view();
    case PhysType::kBool:
      return v.is_bool() && v.AsBool() == (key.b8[row] != 0);
    case PhysType::kValue:
      break;
  }
  return false;
}

void ColumnarAggBuilder::RehashSlots() {
  std::vector<HashSlot> old;
  old.swap(hash_slots_);
  hash_slots_.resize(old.size() * 2);
  const size_t mask = hash_slots_.size() - 1;
  for (const HashSlot& s : old) {
    if (s.gid_plus_1 == 0) continue;
    size_t slot = static_cast<size_t>(s.hash) & mask;
    while (hash_slots_[slot].gid_plus_1 != 0) slot = (slot + 1) & mask;
    hash_slots_[slot] = s;
  }
}

uint32_t ColumnarAggBuilder::InsertHashed(const ColumnVector& key, size_t row,
                                          uint64_t hash, uint64_t raw,
                                          bool exact, size_t slot) {
  // NaN never equals itself under the boxed semantics, so a stored NaN bit
  // image must not fast-accept later NaN cells into this group.
  if (key.type == PhysType::kDouble && key.f64[row] != key.f64[row]) {
    exact = false;
  }
  const uint32_t gid = GroupIdForValue(key.GetValue(row));
  HashSlot& s = hash_slots_[slot];
  s.hash = hash;
  s.raw = raw;
  s.raw_type = static_cast<uint8_t>(exact ? key.type : PhysType::kValue);
  s.gid_plus_1 = gid + 1;
  if (++hash_count_ * 10 >= hash_slots_.size() * 7) RehashSlots();
  return gid;
}

const std::vector<uint32_t>& ColumnarAggBuilder::ResolveKeys(
    const ColumnBatch& batch) {
  const size_t active = batch.ActiveCount();
  gids_.clear();
  gids_.reserve(active);
  if (group_keys_.empty()) {
    if (num_groups_ == 0) NewGroup();
    gids_.assign(active, 0);
    return gids_;
  }
  if (group_keys_.size() > 1) {
    // Composite keys: box the key cells into one reused Row per live row.
    Row key(group_keys_.size());
    for (size_t k = 0; k < active; ++k) {
      const size_t i = batch.ActiveIndex(k);
      for (size_t c = 0; c < group_keys_.size(); ++c) {
        key[c] = batch.cols[static_cast<size_t>(group_keys_[c])].GetValue(i);
      }
      gids_.push_back(GroupIdForRow(key));
    }
    return gids_;
  }
  const ColumnVector& key = batch.cols[static_cast<size_t>(group_keys_[0])];
  // The flat table verifies probes against group_key_values_, which EmitBatch
  // moves out of — after finalization only the boxed path is trustworthy
  // (Feed after Emit does not happen on the hot path anyway).
  if (key.type != PhysType::kValue && !finalized_) {
    // Blocked hashing: hash kHashBlockRows keys column-at-a-time, then
    // resolve those rows off their precomputed hashes, and repeat. The
    // block bound keeps the hash scratch cache-resident even when a batch
    // is far larger than the usual 1024 rows. The probe loop lives here
    // (not in a per-row helper) so the hot path — slot load, hash compare,
    // raw-bit accept — stays inline; only misses leave it.
    if (hash_slots_.empty()) hash_slots_.resize(kInitialHashSlots);
    gids_.resize(active);
    hashes_.resize(std::min(active, kHashBlockRows));
    const PhysType kt = key.type;
    const uint8_t kt8 = static_cast<uint8_t>(kt);
    const uint32_t* sel = batch.has_sel ? batch.sel.data() : nullptr;
    const uint8_t* nulls = key.nulls;
    const uint64_t* hashes = hashes_.data();
    uint32_t* gids = gids_.data();
    // Locals instead of member accesses: the out-of-line calls on the miss
    // path would otherwise force the compiler to reload pointer/mask every
    // row. InsertHashed can grow the table, so both refresh after it.
    const HashSlot* slots = hash_slots_.data();
    size_t mask = hash_slots_.size() - 1;
    for (size_t base = 0; base < active; base += kHashBlockRows) {
      const size_t block = std::min(kHashBlockRows, active - base);
      if (sel != nullptr) {
        HashColumn(key, sel + base, block, hashes_.data());
      } else {
        const ColumnVector view = ShiftColumn(key, base);
        HashColumn(view, nullptr, block, hashes_.data());
      }
      for (size_t j = 0; j < block; ++j) {
        const size_t k = base + j;
        const size_t i = sel != nullptr ? sel[k] : k;
        if (nulls != nullptr && nulls[i] != 0) {
          gids[k] = GroupIdForValue(Value::Null());
          continue;
        }
        uint64_t bits = 0;
        bool exact = true;
        switch (kt) {
          case PhysType::kInt64:
            bits = static_cast<uint64_t>(key.i64[i]);
            break;
          case PhysType::kDouble: {
            const double d = key.f64[i];
            std::memcpy(&bits, &d, sizeof(bits));
            break;
          }
          case PhysType::kBool:
            bits = key.b8[i] != 0 ? 1 : 0;
            break;
          default:
            exact = false;  // strings verify through CellMatchesGroup
            break;
        }
        const uint64_t h = hashes[j];
        size_t slot = static_cast<size_t>(h) & mask;
        uint32_t gid;
        for (;;) {
          const HashSlot& s = slots[slot];
          if (s.gid_plus_1 == 0) {
            gid = InsertHashed(key, i, h, bits, exact, slot);
            slots = hash_slots_.data();
            mask = hash_slots_.size() - 1;
            break;
          }
          if (s.hash == h &&
              ((exact && s.raw_type == kt8 && s.raw == bits) ||
               CellMatchesGroup(key, i, s.gid_plus_1 - 1))) {
            gid = s.gid_plus_1 - 1;
            break;
          }
          slot = (slot + 1) & mask;
        }
        gids[k] = gid;
      }
    }
    return gids_;
  }
  for (size_t k = 0; k < active; ++k) {
    gids_.push_back(GroupIdForValue(key.GetValue(batch.ActiveIndex(k))));
  }
  return gids_;
}

Status ColumnarAggBuilder::FeedCall(const ColumnBatch& batch,
                                    size_t call_idx) {
  const AggregateCall& call = calls_[call_idx];
  const size_t stride = calls_.size();
  const size_t active = batch.ActiveCount();

  if (call.kind == AggKind::kCountStar) {
    if (group_keys_.empty()) {
      accs_[call_idx].AddCountStarN(static_cast<int64_t>(active));
    } else {
      for (size_t k = 0; k < active; ++k) {
        accs_[gids_[k] * stride + call_idx].AddCountStarN(1);
      }
    }
    return Status::OK();
  }
  if (call.args.empty()) {
    return Status::RuntimeError("aggregate " + call.ToString() +
                                " has no argument");
  }
  const int arg = call.args[0];
  if (arg < 0 || static_cast<size_t>(arg) >= batch.cols.size()) {
    return Status::RuntimeError("aggregate argument $" + std::to_string(arg) +
                                " out of range");
  }
  const ColumnVector& col = batch.cols[static_cast<size_t>(arg)];
  auto acc = [&](size_t k) -> AggAccumulator& {
    return accs_[gids_[k] * stride + call_idx];
  };

  // DISTINCT dedups int64 cells on the raw int; every other DISTINCT
  // column dedups on the boxed value.
  if (call.distinct && col.type == PhysType::kInt64) {
    for (size_t k = 0; k < active; ++k) {
      const size_t i = batch.ActiveIndex(k);
      if (col.nulls != nullptr && col.nulls[i] != 0) continue;
      CALCITE_RETURN_IF_ERROR(acc(k).AddNonNullInt64Distinct(col.i64[i]));
    }
    return Status::OK();
  }
  if (call.distinct || col.type == PhysType::kValue) {
    for (size_t k = 0; k < active; ++k) {
      const size_t i = batch.ActiveIndex(k);
      if (col.IsNullAt(i)) continue;  // SQL aggregates ignore NULLs.
      CALCITE_RETURN_IF_ERROR(acc(k).AddNonNullValue(col.GetValue(i)));
    }
    return Status::OK();
  }
  switch (col.type) {
    case PhysType::kInt64:
      for (size_t k = 0; k < active; ++k) {
        const size_t i = batch.ActiveIndex(k);
        if (col.nulls != nullptr && col.nulls[i] != 0) continue;
        CALCITE_RETURN_IF_ERROR(acc(k).AddNonNullInt64(col.i64[i]));
      }
      return Status::OK();
    case PhysType::kDouble:
      for (size_t k = 0; k < active; ++k) {
        const size_t i = batch.ActiveIndex(k);
        if (col.nulls != nullptr && col.nulls[i] != 0) continue;
        CALCITE_RETURN_IF_ERROR(acc(k).AddNonNullDouble(col.f64[i]));
      }
      return Status::OK();
    case PhysType::kString:
      for (size_t k = 0; k < active; ++k) {
        const size_t i = batch.ActiveIndex(k);
        if (col.nulls != nullptr && col.nulls[i] != 0) continue;
        CALCITE_RETURN_IF_ERROR(acc(k).AddNonNullStringView(col.str[i].view()));
      }
      return Status::OK();
    case PhysType::kBool:
      for (size_t k = 0; k < active; ++k) {
        const size_t i = batch.ActiveIndex(k);
        if (col.nulls != nullptr && col.nulls[i] != 0) continue;
        CALCITE_RETURN_IF_ERROR(
            acc(k).AddNonNullValue(Value::Bool(col.b8[i] != 0)));
      }
      return Status::OK();
    case PhysType::kValue:
      break;  // handled above
  }
  return Status::OK();
}

Status ColumnarAggBuilder::Feed(const ColumnBatch& batch) {
  ResolveKeys(batch);
  for (size_t j = 0; j < calls_.size(); ++j) {
    CALCITE_RETURN_IF_ERROR(FeedCall(batch, j));
  }
  return Status::OK();
}

Status ColumnarAggBuilder::MergeFrom(const ColumnarAggBuilder& other) {
  const size_t stride = calls_.size();
  const size_t width = group_keys_.size();
  Row key(width);
  for (size_t og = 0; og < other.num_groups_; ++og) {
    uint32_t gid;
    if (width == 0) {
      if (num_groups_ == 0) NewGroup();
      gid = 0;
    } else if (width == 1) {
      gid = GroupIdForValue(other.group_key_values_[og]);
    } else {
      std::copy_n(other.group_key_values_.begin() +
                      static_cast<ptrdiff_t>(og * width),
                  width, key.begin());
      gid = GroupIdForRow(key);
    }
    for (size_t j = 0; j < stride; ++j) {
      CALCITE_RETURN_IF_ERROR(
          accs_[gid * stride + j].MergeFrom(other.accs_[og * stride + j]));
    }
  }
  return Status::OK();
}

RowBatch ColumnarAggBuilder::EmitBatch(size_t batch_size) {
  if (!finalized_) {
    // Global aggregate over empty input still produces one row.
    if (group_keys_.empty() && num_groups_ == 0) NewGroup();
    finalized_ = true;
  }
  const size_t stride = calls_.size();
  const size_t width = group_keys_.size();
  RowBatch out;
  while (emit_pos_ < num_groups_ && out.size() < batch_size) {
    const size_t g = emit_pos_++;
    Row result;
    result.reserve(width + stride);
    for (size_t c = 0; c < width; ++c) {
      result.push_back(std::move(group_key_values_[g * width + c]));
    }
    for (size_t j = 0; j < stride; ++j) {
      result.push_back(accs_[g * stride + j].Finish());
    }
    out.push_back(std::move(result));
  }
  return out;
}

}  // namespace calcite
