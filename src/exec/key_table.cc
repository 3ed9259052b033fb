#include "exec/key_table.h"

#include <algorithm>
#include <cstring>
#include <string_view>

namespace calcite {

namespace {

constexpr size_t kInitialSlots = 64;  // power of two

// Rows hashed per HashKeyColumns block: large enough to amortize the kernel
// dispatch, small enough that the 8-byte-per-row hash scratch (32 KiB)
// stays cache-resident instead of evicting the key columns on oversized
// batches.
constexpr size_t kHashBlockRows = 4096;

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// The typed bit image of non-NULL cell `row`; false for strings and boxed
/// cells, which have none.
bool CellImage(const ColumnVector& col, size_t row, uint64_t* bits) {
  switch (col.type) {
    case PhysType::kInt64:
      *bits = static_cast<uint64_t>(col.i64[row]);
      return true;
    case PhysType::kDouble:
      *bits = DoubleBits(col.f64[row]);
      return true;
    case PhysType::kBool:
      *bits = col.b8[row] != 0 ? 1 : 0;
      return true;
    default:
      return false;
  }
}

/// CellImage of a boxed non-NULL value: its bits and the PhysType a typed
/// column holding it would have (kValue when there is no image).
PhysType ValueImage(const Value& v, uint64_t* bits) {
  if (v.is_int()) {
    *bits = static_cast<uint64_t>(v.AsInt());
    return PhysType::kInt64;
  }
  if (v.is_double()) {
    *bits = DoubleBits(v.AsDouble());
    return PhysType::kDouble;
  }
  if (v.is_bool()) {
    *bits = v.AsBool() ? 1 : 0;
    return PhysType::kBool;
  }
  return PhysType::kValue;
}

/// Value equality with NULL equal only to NULL (Value::Compare orders NULL
/// but a key table must not equate it with anything else).
bool ValuesEqual(const Value& a, const Value& b) {
  if (a.IsNull() || b.IsNull()) return a.IsNull() && b.IsNull();
  return a == b;
}

/// ValuesEqual(col.GetValue(row), v) without boxing the cell. Numbers
/// compare across representations as Value::Compare does; a NaN cell equals
/// only a stored NaN with the same bits (the cells whose hashes agree).
bool CellEquals(const ColumnVector& col, size_t row, const Value& v) {
  if (col.type == PhysType::kValue) return ValuesEqual(col.boxed[row], v);
  if (col.nulls != nullptr && col.nulls[row] != 0) return v.IsNull();
  switch (col.type) {
    case PhysType::kInt64: {
      const int64_t c = col.i64[row];
      if (v.is_int()) return v.AsInt() == c;
      return v.is_double() && v.AsDouble() == static_cast<double>(c);
    }
    case PhysType::kDouble: {
      const double d = col.f64[row];
      if (v.is_int()) return static_cast<double>(v.AsInt()) == d;
      if (!v.is_double()) return false;
      const double s = v.AsDouble();
      return s == d || (d != d && DoubleBits(s) == DoubleBits(d));
    }
    case PhysType::kString:
      return v.is_string() &&
             std::string_view(v.AsString()) == col.str[row].view();
    case PhysType::kBool:
      return v.is_bool() && v.AsBool() == (col.b8[row] != 0);
    case PhysType::kValue:
      break;
  }
  return false;
}

}  // namespace

bool KeyTable::RowMatches(const ColumnBatch& batch,
                          const std::vector<int>& cols, size_t row,
                          uint32_t id) const {
  const Value* stored = key(id);
  for (size_t c = 0; c < width_; ++c) {
    if (!CellEquals(batch.cols[static_cast<size_t>(cols[c])], row,
                    stored[c])) {
      return false;
    }
  }
  return true;
}

void KeyTable::Grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  const size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id_plus_1 == 0) continue;
    size_t slot = static_cast<size_t>(s.hash) & mask;
    while (slots_[slot].id_plus_1 != 0) slot = (slot + 1) & mask;
    slots_[slot] = s;
  }
}

uint32_t KeyTable::Insert(uint64_t hash, uint64_t raw, uint8_t raw_type,
                          size_t slot) {
  const uint32_t id = static_cast<uint32_t>(num_keys_++);
  Slot& s = slots_[slot];
  s.hash = hash;
  s.raw = raw;
  s.raw_type = raw_type;
  s.id_plus_1 = id + 1;
  if (num_keys_ * 10 >= slots_.size() * 7) Grow();
  return id;
}

template <bool kInsert>
const std::vector<uint32_t>& KeyTable::Probe(const ColumnBatch& batch,
                                             const std::vector<int>& cols) {
  const size_t active = batch.ActiveCount();
  ids_.resize(active);
  if (active == 0) return ids_;
  if (slots_.empty()) slots_.resize(kInitialSlots);
  hashes_.resize(std::min(active, kHashBlockRows));
  const uint32_t* sel = batch.has_sel ? batch.sel.data() : nullptr;
  const ColumnVector& first = batch.cols[static_cast<size_t>(cols[0])];
  // Only a single-column key has a typed image in its slot.
  const uint8_t image_type = static_cast<uint8_t>(
      width_ == 1 ? first.type : PhysType::kValue);
  bool may_be_null = false;
  for (int c : cols) {
    const ColumnVector& col = batch.cols[static_cast<size_t>(c)];
    may_be_null |= col.type == PhysType::kValue || col.nulls != nullptr;
  }
  auto any_null = [&](size_t row) {
    for (int c : cols) {
      if (batch.cols[static_cast<size_t>(c)].IsNullAt(row)) return true;
    }
    return false;
  };
  // The probe loop stays inline — slot load, hash compare, typed accept —
  // and only misses and verifications leave it. Locals instead of members:
  // Insert can grow the table, so both refresh after it.
  uint32_t* ids = ids_.data();
  const Slot* slots = slots_.data();
  size_t mask = slots_.size() - 1;
  for (size_t base = 0; base < active; base += kHashBlockRows) {
    const size_t block = std::min(kHashBlockRows, active - base);
    HashKeyColumns(batch, cols, sel != nullptr ? sel + base : nullptr, base,
                   block, hashes_.data(), &cell_hashes_);
    for (size_t j = 0; j < block; ++j) {
      const size_t k = base + j;
      const size_t i = sel != nullptr ? sel[k] : k;
      const bool is_null = may_be_null && any_null(i);
      if (is_null && !null_keys_match_) {
        ids[k] = kNoId;
        continue;
      }
      uint64_t bits = 0;
      const bool exact =
          image_type != static_cast<uint8_t>(PhysType::kValue) && !is_null &&
          CellImage(first, i, &bits);
      const uint64_t h = hashes_[j];
      size_t slot = static_cast<size_t>(h) & mask;
      uint32_t id;
      for (;;) {
        const Slot& s = slots[slot];
        if (s.id_plus_1 == 0) {
          if constexpr (kInsert) {
            for (int c : cols) {
              keys_.push_back(batch.cols[static_cast<size_t>(c)].GetValue(i));
            }
            id = Insert(h, bits,
                        exact ? image_type
                              : static_cast<uint8_t>(PhysType::kValue),
                        slot);
            slots = slots_.data();
            mask = slots_.size() - 1;
          } else {
            id = kNoId;
          }
          break;
        }
        if (s.hash == h &&
            ((exact && s.raw_type == image_type && s.raw == bits) ||
             RowMatches(batch, cols, i, s.id_plus_1 - 1))) {
          id = s.id_plus_1 - 1;
          break;
        }
        slot = (slot + 1) & mask;
      }
      ids[k] = id;
    }
  }
  return ids_;
}

const std::vector<uint32_t>& KeyTable::Resolve(const ColumnBatch& batch,
                                               const std::vector<int>& cols) {
  return Probe<true>(batch, cols);
}

const std::vector<uint32_t>& KeyTable::Find(const ColumnBatch& batch,
                                            const std::vector<int>& cols) {
  return Probe<false>(batch, cols);
}

uint32_t KeyTable::ResolveValues(const Value* key) {
  bool is_null = false;
  for (size_t c = 0; c < width_; ++c) is_null |= key[c].IsNull();
  if (is_null && !null_keys_match_) return kNoId;
  uint64_t h = HashValue64(key[0]);
  if (width_ > 1) {
    h = kKeyHashSeed;
    for (size_t c = 0; c < width_; ++c) h = FoldKeyHash(h, HashValue64(key[c]));
  }
  uint64_t bits = 0;
  const PhysType image =
      width_ == 1 && !is_null ? ValueImage(key[0], &bits) : PhysType::kValue;
  const uint8_t image_type = static_cast<uint8_t>(image);
  if (slots_.empty()) slots_.resize(kInitialSlots);
  const size_t mask = slots_.size() - 1;
  for (size_t slot = static_cast<size_t>(h) & mask;;
       slot = (slot + 1) & mask) {
    const Slot& s = slots_[slot];
    if (s.id_plus_1 == 0) {
      keys_.insert(keys_.end(), key, key + width_);
      return Insert(h, bits, image_type, slot);
    }
    if (s.hash != h) continue;
    if (image != PhysType::kValue && s.raw_type == image_type &&
        s.raw == bits) {
      return s.id_plus_1 - 1;
    }
    const Value* stored = this->key(s.id_plus_1 - 1);
    bool equal = true;
    for (size_t c = 0; equal && c < width_; ++c) {
      equal = ValuesEqual(stored[c], key[c]);
    }
    if (equal) return s.id_plus_1 - 1;
  }
}

}  // namespace calcite
