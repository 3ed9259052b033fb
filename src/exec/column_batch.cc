#include "exec/column_batch.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "exec/simd.h"

namespace calcite {

PhysType PhysTypeForSql(SqlTypeName name) {
  switch (name) {
    case SqlTypeName::kBoolean:
      return PhysType::kBool;
    case SqlTypeName::kTinyInt:
    case SqlTypeName::kSmallInt:
    case SqlTypeName::kInteger:
    case SqlTypeName::kBigInt:
    case SqlTypeName::kDate:
    case SqlTypeName::kTime:
    case SqlTypeName::kTimestamp:
    case SqlTypeName::kIntervalDay:
      return PhysType::kInt64;
    case SqlTypeName::kFloat:
    case SqlTypeName::kDouble:
    case SqlTypeName::kDecimal:
      return PhysType::kDouble;
    case SqlTypeName::kChar:
    case SqlTypeName::kVarchar:
      return PhysType::kString;
    default:
      return PhysType::kValue;
  }
}

Value ColumnVector::GetValue(size_t i) const {
  if (type == PhysType::kValue) return boxed[i];
  if (nulls != nullptr && nulls[i] != 0) return Value::Null();
  switch (type) {
    case PhysType::kInt64:
      return Value::Int(i64[i]);
    case PhysType::kDouble:
      return Value::Double(f64[i]);
    case PhysType::kBool:
      return Value::Bool(b8[i] != 0);
    case PhysType::kString:
      return Value::String(std::string(str[i].view()));
    case PhysType::kValue:
      break;
  }
  return Value::Null();
}

void ColumnBatch::ShareStorage(const ColumnBatch& other) {
  if (other.arena != nullptr && other.arena != arena) {
    pins.push_back(other.arena);
  }
  pins.insert(pins.end(), other.pins.begin(), other.pins.end());
  boxed_pool.insert(boxed_pool.end(), other.boxed_pool.begin(),
                    other.boxed_pool.end());
}

Row ColumnBatch::GatherRow(size_t row) const {
  Row out;
  out.reserve(cols.size());
  for (const ColumnVector& col : cols) out.push_back(col.GetValue(row));
  return out;
}

std::shared_ptr<const TableColumns> TableColumns::Build(
    const std::vector<Row>& rows, const RelDataType& row_type) {
  const auto& fields = row_type.fields();
  const size_t width = fields.size();
  for (const Row& row : rows) {
    if (row.size() != width) return nullptr;  // ragged: stay on the row path
  }

  auto out = std::make_shared<TableColumns>();
  out->num_rows = rows.size();
  out->cols.resize(width);
  const size_t n = rows.size();

  for (size_t c = 0; c < width; ++c) {
    Col& col = out->cols[c];
    PhysType declared = PhysTypeForRel(*fields[c].type);

    // Pass 1: check that every stored value fits the declared physical
    // class (degrading to boxed otherwise) and size the string blob.
    bool any_null = false;
    size_t blob_bytes = 0;
    PhysType phys = declared;
    if (phys != PhysType::kValue) {
      for (size_t i = 0; i < n; ++i) {
        const Value& v = rows[i][c];
        if (v.IsNull()) {
          any_null = true;
          continue;
        }
        bool fits = false;
        switch (phys) {
          case PhysType::kInt64:
            fits = v.is_int();
            break;
          case PhysType::kDouble:
            fits = v.is_double();
            break;
          case PhysType::kBool:
            fits = v.is_bool();
            break;
          case PhysType::kString:
            fits = v.is_string();
            if (fits) blob_bytes += v.AsString().size();
            break;
          case PhysType::kValue:
            break;
        }
        if (!fits) {
          phys = PhysType::kValue;
          break;
        }
      }
    }
    col.type = phys;

    // Pass 2: fill the typed storage.
    if (phys == PhysType::kValue) {
      col.boxed.reserve(n);
      for (size_t i = 0; i < n; ++i) col.boxed.push_back(rows[i][c]);
      continue;
    }
    if (any_null) col.nulls.assign(n, 0);
    switch (phys) {
      case PhysType::kInt64: {
        col.i64.assign(n, 0);
        for (size_t i = 0; i < n; ++i) {
          const Value& v = rows[i][c];
          if (v.IsNull()) {
            col.nulls[i] = 1;
          } else {
            col.i64[i] = v.AsInt();
          }
        }
        break;
      }
      case PhysType::kDouble: {
        col.f64.assign(n, 0.0);
        for (size_t i = 0; i < n; ++i) {
          const Value& v = rows[i][c];
          if (v.IsNull()) {
            col.nulls[i] = 1;
          } else {
            col.f64[i] = v.AsDouble();
          }
        }
        break;
      }
      case PhysType::kBool: {
        col.b8.assign(n, 0);
        for (size_t i = 0; i < n; ++i) {
          const Value& v = rows[i][c];
          if (v.IsNull()) {
            col.nulls[i] = 1;
          } else {
            col.b8[i] = v.AsBool() ? 1 : 0;
          }
        }
        break;
      }
      case PhysType::kString: {
        // Two passes over the blob: append every string's bytes recording
        // offsets, then resolve spans once the blob's address is final.
        col.str_blob.reserve(blob_bytes);
        std::vector<std::pair<size_t, uint32_t>> spans(n, {0, 0});
        for (size_t i = 0; i < n; ++i) {
          const Value& v = rows[i][c];
          if (v.IsNull()) {
            col.nulls[i] = 1;
            continue;
          }
          const std::string& s = v.AsString();
          spans[i] = {col.str_blob.size(), static_cast<uint32_t>(s.size())};
          col.str_blob.append(s);
        }
        col.str.assign(n, StringRef{});
        const char* base = col.str_blob.data();
        for (size_t i = 0; i < n; ++i) {
          col.str[i] = StringRef{base + spans[i].first, spans[i].second};
        }
        break;
      }
      case PhysType::kValue:
        break;
    }
  }
  return out;
}

ColumnVector TableColumns::View(size_t col, size_t offset) const {
  const Col& c = cols[col];
  ColumnVector v;
  v.type = c.type;
  switch (c.type) {
    case PhysType::kInt64:
      v.i64 = c.i64.data() + offset;
      break;
    case PhysType::kDouble:
      v.f64 = c.f64.data() + offset;
      break;
    case PhysType::kBool:
      v.b8 = c.b8.data() + offset;
      break;
    case PhysType::kString:
      v.str = c.str.data() + offset;
      break;
    case PhysType::kValue:
      v.boxed = c.boxed.data() + offset;
      break;
  }
  if (!c.nulls.empty()) v.nulls = c.nulls.data() + offset;
  return v;
}

TableColumnsPtr ColumnarCache::Get(const std::vector<Row>& rows,
                                   const RelDataTypePtr& row_type) const {
  if (row_type == nullptr || !row_type->is_struct()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (columns_ == nullptr) columns_ = TableColumns::Build(rows, *row_type);
  return columns_;
}

void ColumnarCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  columns_.reset();
}

ColumnBatch SliceTableColumns(const TableColumnsPtr& columns, size_t begin,
                              size_t count, std::shared_ptr<const void> pin) {
  ColumnBatch batch;
  batch.num_rows = count;
  batch.cols.reserve(columns->cols.size());
  for (size_t c = 0; c < columns->cols.size(); ++c) {
    batch.cols.push_back(columns->View(c, begin));
  }
  batch.pins.push_back(columns);
  if (pin != nullptr) batch.pins.push_back(std::move(pin));
  return batch;
}

namespace {

/// Keeps the selected indexes for which `pass` holds.
template <typename Pass>
void NarrowWith(SelectionVector* sel, Pass pass) {
  size_t out = 0;
  for (uint32_t idx : *sel) {
    if (pass(idx)) (*sel)[out++] = idx;
  }
  sel->resize(out);
}

bool ComparisonKindPasses(ScanPredicate::Kind kind, int c) {
  switch (kind) {
    case ScanPredicate::Kind::kEquals:
      return c == 0;
    case ScanPredicate::Kind::kNotEquals:
      return c != 0;
    case ScanPredicate::Kind::kLessThan:
      return c < 0;
    case ScanPredicate::Kind::kLessThanOrEqual:
      return c <= 0;
    case ScanPredicate::Kind::kGreaterThan:
      return c > 0;
    case ScanPredicate::Kind::kGreaterThanOrEqual:
      return c >= 0;
    default:
      return false;
  }
}

template <typename T>
int Cmp3(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

std::optional<simd::Cmp> SimdCmpOf(ScanPredicate::Kind kind) {
  switch (kind) {
    case ScanPredicate::Kind::kEquals:
      return simd::Cmp::kEq;
    case ScanPredicate::Kind::kNotEquals:
      return simd::Cmp::kNe;
    case ScanPredicate::Kind::kLessThan:
      return simd::Cmp::kLt;
    case ScanPredicate::Kind::kLessThanOrEqual:
      return simd::Cmp::kLe;
    case ScanPredicate::Kind::kGreaterThan:
      return simd::Cmp::kGt;
    case ScanPredicate::Kind::kGreaterThanOrEqual:
      return simd::Cmp::kGe;
    default:
      return std::nullopt;
  }
}

/// Below this candidate count the refill bookkeeping costs more than the
/// scalar loop it replaces.
constexpr size_t kVectorNarrowMinRows = 32;

/// Vectorized narrow: compare the whole candidate row range in lanes into a
/// bytemask, then rebuild the selection from the mask. Handles the typed
/// numeric column/literal pairings; returns false to fall back to the
/// scalar per-row loops (sparse selections, strings, bools, mixed
/// int-column/double-literal).
bool NarrowVectorized(const ScanPredicate& pred, const ColumnVector& col,
                      SelectionVector* sel) {
  const size_t cand = sel->size();
  if (cand < kVectorNarrowMinRows) return false;
  const auto cmp = SimdCmpOf(pred.kind);
  if (!cmp.has_value()) return false;
  const bool i64_path = col.type == PhysType::kInt64 && pred.literal.is_int();
  const bool f64_path =
      col.type == PhysType::kDouble && pred.literal.is_numeric();
  if (!i64_path && !f64_path) return false;
  // The compare runs over rows [0, hi); only worth it while the candidates
  // are reasonably dense in that range.
  const size_t hi = static_cast<size_t>(sel->back()) + 1;
  if (cand * 4 < hi) return false;

  thread_local std::vector<uint8_t> mask;
  if (mask.size() < hi) mask.resize(hi);
  if (i64_path) {
    simd::CmpI64Lit(*cmp, col.i64, pred.literal.AsInt(), hi, mask.data());
  } else {
    simd::CmpF64Lit(*cmp, col.f64, pred.literal.AsDouble(), hi, mask.data());
  }
  if (col.nulls != nullptr) {
    simd::MaskZeroU8(mask.data(), col.nulls, hi);  // NULL never passes
  }
  // An ascending selection whose last entry is cand-1 is the identity, so
  // the mask positions are the selection: table-driven refill. Otherwise
  // filter the existing entries through the mask in place.
  if (hi == cand) {
    sel->resize(hi + simd::kSelSlack);
    sel->resize(simd::MaskToSel(mask.data(), hi, sel->data()));
  } else {
    sel->resize(simd::FilterSelByMask(mask.data(), sel->data(), cand,
                                      sel->data()));
  }
  return true;
}

/// Vectorized fused-interval narrow, the two-bound analogue of
/// NarrowVectorized (same density gates, same refill). Returns false to
/// fall back to applying the two bounds separately.
bool NarrowRangeVectorized(const FusedScanRange& range,
                           const ColumnVector& col, SelectionVector* sel) {
  const size_t cand = sel->size();
  if (cand < kVectorNarrowMinRows) return false;
  const Value& lo = range.lower.literal;
  const Value& hi = range.upper.literal;
  const bool i64_path =
      col.type == PhysType::kInt64 && lo.is_int() && hi.is_int();
  const bool f64_path =
      col.type == PhysType::kDouble && lo.is_numeric() && hi.is_numeric();
  if (!i64_path && !f64_path) return false;
  const size_t hi_row = static_cast<size_t>(sel->back()) + 1;
  if (cand * 4 < hi_row) return false;

  const bool lo_strict = range.lower.kind == ScanPredicate::Kind::kGreaterThan;
  const bool hi_strict = range.upper.kind == ScanPredicate::Kind::kLessThan;
  thread_local std::vector<uint8_t> mask;
  if (mask.size() < hi_row) mask.resize(hi_row);
  if (i64_path) {
    simd::InRangeI64(col.i64, lo.AsInt(), lo_strict, hi.AsInt(), hi_strict,
                     hi_row, mask.data());
  } else {
    simd::InRangeF64(col.f64, lo.AsDouble(), lo_strict, hi.AsDouble(),
                     hi_strict, hi_row, mask.data());
  }
  if (col.nulls != nullptr) {
    simd::MaskZeroU8(mask.data(), col.nulls, hi_row);  // NULL never passes
  }
  if (hi_row == cand) {
    sel->resize(hi_row + simd::kSelSlack);
    sel->resize(simd::MaskToSel(mask.data(), hi_row, sel->data()));
  } else {
    sel->resize(simd::FilterSelByMask(mask.data(), sel->data(), cand,
                                      sel->data()));
  }
  return true;
}

/// True for a comparison predicate usable as one side of a fused range:
/// a strict or inclusive bound with a non-NULL numeric literal.
bool IsRangeBound(const ScanPredicate& pred, bool* is_lower) {
  switch (pred.kind) {
    case ScanPredicate::Kind::kGreaterThan:
    case ScanPredicate::Kind::kGreaterThanOrEqual:
      *is_lower = true;
      break;
    case ScanPredicate::Kind::kLessThan:
    case ScanPredicate::Kind::kLessThanOrEqual:
      *is_lower = false;
      break;
    default:
      return false;
  }
  return !pred.literal.IsNull() && pred.literal.is_numeric();
}

}  // namespace

void FuseScanRanges(ScanPredicateList preds,
                    std::vector<FusedScanRange>* ranges,
                    ScanPredicateList* rest) {
  std::vector<bool> consumed(preds.size(), false);
  for (size_t i = 0; i < preds.size(); ++i) {
    if (consumed[i]) continue;
    bool i_lower = false;
    if (!IsRangeBound(preds[i], &i_lower)) {
      rest->push_back(std::move(preds[i]));
      continue;
    }
    size_t partner = preds.size();
    for (size_t j = i + 1; j < preds.size(); ++j) {
      if (consumed[j] || preds[j].column != preds[i].column) continue;
      bool j_lower = false;
      if (IsRangeBound(preds[j], &j_lower) && j_lower != i_lower) {
        partner = j;
        break;
      }
    }
    if (partner == preds.size()) {
      rest->push_back(std::move(preds[i]));
      continue;
    }
    consumed[partner] = true;
    FusedScanRange range;
    range.lower = std::move(i_lower ? preds[i] : preds[partner]);
    range.upper = std::move(i_lower ? preds[partner] : preds[i]);
    ranges->push_back(std::move(range));
  }
}

void NarrowByFusedRange(const FusedScanRange& range, const ColumnBatch& batch,
                        SelectionVector* sel) {
  const int column = range.lower.column;
  if (column >= 0 && static_cast<size_t>(column) < batch.cols.size() &&
      NarrowRangeVectorized(range, batch.cols[static_cast<size_t>(column)],
                            sel)) {
    return;
  }
  NarrowByScanPredicate(range.lower, batch, sel);
  if (!sel->empty()) NarrowByScanPredicate(range.upper, batch, sel);
}

void NarrowByScanPredicate(const ScanPredicate& pred, const ColumnBatch& batch,
                           SelectionVector* sel) {
  if (pred.column < 0 ||
      static_cast<size_t>(pred.column) >= batch.cols.size()) {
    sel->clear();
    return;
  }
  const ColumnVector& col = batch.cols[static_cast<size_t>(pred.column)];
  const uint8_t* nulls = col.nulls;

  switch (pred.kind) {
    case ScanPredicate::Kind::kIsNull:
      NarrowWith(sel, [&](uint32_t i) { return col.IsNullAt(i); });
      return;
    case ScanPredicate::Kind::kIsNotNull:
      NarrowWith(sel, [&](uint32_t i) { return !col.IsNullAt(i); });
      return;
    default:
      break;
  }
  // SQL comparison: NULL on either side never passes.
  if (pred.literal.IsNull()) {
    sel->clear();
    return;
  }

  if (NarrowVectorized(pred, col, sel)) return;

  const ScanPredicate::Kind kind = pred.kind;
  if (col.type == PhysType::kInt64 && pred.literal.is_int()) {
    const int64_t lit = pred.literal.AsInt();
    const int64_t* v = col.i64;
    NarrowWith(sel, [&](uint32_t i) {
      if (nulls != nullptr && nulls[i]) return false;
      return ComparisonKindPasses(kind, Cmp3(v[i], lit));
    });
  } else if ((col.type == PhysType::kInt64 && pred.literal.is_double()) ||
             (col.type == PhysType::kDouble && pred.literal.is_numeric())) {
    // Cross-representation numeric comparison happens in double, exactly as
    // Value::Compare does.
    const double lit = pred.literal.AsDouble();
    NarrowWith(sel, [&](uint32_t i) {
      if (nulls != nullptr && nulls[i]) return false;
      double v = col.type == PhysType::kInt64
                     ? static_cast<double>(col.i64[i])
                     : col.f64[i];
      return ComparisonKindPasses(kind, Cmp3(v, lit));
    });
  } else if (col.type == PhysType::kString && pred.literal.is_string()) {
    const std::string_view lit = pred.literal.AsString();
    const StringRef* v = col.str;
    NarrowWith(sel, [&](uint32_t i) {
      if (nulls != nullptr && nulls[i]) return false;
      int c = v[i].view().compare(lit);
      return ComparisonKindPasses(kind, c);
    });
  } else if (col.type == PhysType::kBool && pred.literal.is_bool()) {
    const int lit = pred.literal.AsBool() ? 1 : 0;
    const uint8_t* v = col.b8;
    NarrowWith(sel, [&](uint32_t i) {
      if (nulls != nullptr && nulls[i]) return false;
      return ComparisonKindPasses(kind, static_cast<int>(v[i]) - lit);
    });
  } else {
    // Mixed or boxed representations: box per candidate row and use the
    // Value comparison the row path uses.
    NarrowWith(sel, [&](uint32_t i) {
      Value v = col.GetValue(i);
      if (v.IsNull()) return false;
      return ComparisonKindPasses(kind, v.Compare(pred.literal));
    });
  }
}

PushedPredicates::PushedPredicates(ScanPredicateList predicates) {
  FuseScanRanges(std::move(predicates), &ranges_, &rest_);
}

bool PushedPredicates::Apply(ColumnBatch* batch) const {
  if (empty()) return true;
  const size_t count = batch->num_rows;
  SelectionVector sel(count);
  for (size_t i = 0; i < count; ++i) sel[i] = static_cast<uint32_t>(i);
  for (const FusedScanRange& range : ranges_) {
    if (sel.empty()) break;
    NarrowByFusedRange(range, *batch, &sel);
  }
  for (const ScanPredicate& pred : rest_) {
    if (sel.empty()) break;
    NarrowByScanPredicate(pred, *batch, &sel);
  }
  if (sel.empty()) return false;
  if (sel.size() < count) {
    batch->sel = std::move(sel);
    batch->has_sel = true;
  }
  return true;
}

ColumnBatchPuller ScanTableColumns(TableColumnsPtr columns, size_t batch_size,
                                   ScanPredicateList predicates,
                                   std::shared_ptr<const void> pin) {
  if (batch_size == 0) batch_size = 1;
  // Bound pairs fuse once at puller construction, not per batch.
  auto preds = std::make_shared<const PushedPredicates>(std::move(predicates));
  size_t pos = 0;
  return [columns, batch_size, preds, pin,
          pos]() mutable -> Result<ColumnBatch> {
    while (pos < columns->num_rows) {
      const size_t count = std::min(batch_size, columns->num_rows - pos);
      ColumnBatch batch = SliceTableColumns(columns, pos, count, pin);
      pos += count;
      // Never yield an empty batch mid-stream.
      if (preds->Apply(&batch)) return batch;
    }
    return ColumnBatch{};
  };
}

void ColumnsToRows(const ColumnBatch& batch, RowBatch* out) {
  out->clear();
  const size_t active = batch.ActiveCount();
  out->reserve(active);
  for (size_t k = 0; k < active; ++k) {
    out->push_back(batch.GatherRow(batch.ActiveIndex(k)));
  }
}

Result<ColumnBatch> RowsToColumns(const RowBatch& rows,
                                  const RelDataType& row_type) {
  TableColumnsPtr columns = TableColumns::Build(rows, row_type);
  if (columns == nullptr) {
    return Status::Internal("cannot decompose ragged rows into columns");
  }
  return SliceTableColumns(columns, 0, rows.size(), nullptr);
}

namespace {

/// Bool cells get distinct fixed seeds so they collide with nothing numeric.
inline uint64_t HashBool64(bool b) {
  return simd::Mix64(b ? 0x9001u : 0x9000u);
}

}  // namespace

uint64_t HashValue64(const Value& v) {
  if (v.IsNull()) return simd::kNullHash;
  if (v.is_int()) return simd::HashI64One(v.AsInt());
  if (v.is_double()) return simd::HashF64One(v.AsDouble());
  if (v.is_bool()) return HashBool64(v.AsBool());
  if (v.is_string()) {
    const std::string& s = v.AsString();
    return simd::HashBytes(s.data(), s.size());
  }
  return v.Hash();  // composite: only ever meets other boxed cells
}

void HashColumn(const ColumnVector& col, const uint32_t* sel, size_t n,
                uint64_t* out) {
  switch (col.type) {
    case PhysType::kInt64:
      if (sel == nullptr) {
        simd::HashI64(col.i64, n, out);
      } else {
        thread_local std::vector<int64_t> gathered;
        if (gathered.size() < n) gathered.resize(n);
        for (size_t k = 0; k < n; ++k) gathered[k] = col.i64[sel[k]];
        simd::HashI64(gathered.data(), n, out);
      }
      break;
    case PhysType::kDouble:
      if (sel == nullptr) {
        simd::HashF64(col.f64, n, out);
      } else {
        thread_local std::vector<double> gathered;
        if (gathered.size() < n) gathered.resize(n);
        for (size_t k = 0; k < n; ++k) gathered[k] = col.f64[sel[k]];
        simd::HashF64(gathered.data(), n, out);
      }
      break;
    case PhysType::kBool:
      for (size_t k = 0; k < n; ++k) {
        out[k] = HashBool64(col.b8[sel != nullptr ? sel[k] : k] != 0);
      }
      break;
    case PhysType::kString:
      for (size_t k = 0; k < n; ++k) {
        const StringRef& s = col.str[sel != nullptr ? sel[k] : k];
        out[k] = simd::HashBytes(s.data, s.size);
      }
      break;
    case PhysType::kValue:
      for (size_t k = 0; k < n; ++k) {
        out[k] = HashValue64(col.boxed[sel != nullptr ? sel[k] : k]);
      }
      return;  // boxed cells carry their own null state
  }
  if (col.nulls != nullptr) {
    for (size_t k = 0; k < n; ++k) {
      if (col.nulls[sel != nullptr ? sel[k] : k] != 0) {
        out[k] = simd::kNullHash;
      }
    }
  }
}

namespace {

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

void HashKeyColumns(const ColumnBatch& batch, const std::vector<int>& cols,
                    const uint32_t* sel, size_t base, size_t n, uint64_t* out,
                    std::vector<uint64_t>* scratch) {
  auto hash_column = [&](int c, uint64_t* dst) {
    const ColumnVector& col = batch.cols[static_cast<size_t>(c)];
    if (sel != nullptr || base == 0) {
      HashColumn(col, sel, n, dst);
    } else {
      HashColumn(ShiftColumn(col, base), nullptr, n, dst);
    }
  };
  if (cols.size() == 1) {
    hash_column(cols[0], out);
    return;
  }
  std::fill(out, out + n, kKeyHashSeed);
  scratch->resize(n);
  for (int c : cols) {
    hash_column(c, scratch->data());
    for (size_t j = 0; j < n; ++j) out[j] = FoldKeyHash(out[j], (*scratch)[j]);
  }
}

namespace {

/// The typed data pointer of `col` for T.
template <typename T>
const T* TypedData(const ColumnVector& col);
template <>
const int64_t* TypedData(const ColumnVector& col) { return col.i64; }
template <>
const double* TypedData(const ColumnVector& col) { return col.f64; }
template <>
const uint8_t* TypedData(const ColumnVector& col) { return col.b8; }
template <>
const StringRef* TypedData(const ColumnVector& col) { return col.str; }

/// dst[k] = cell rows[k] of srcs[src_of[k]], or T{} where rows[k] is
/// kNullRow.
template <typename T>
T* GatherCells(const ColumnVector* srcs, const uint32_t* src_of,
               const uint32_t* rows, size_t n, bool has_null_rows,
               Arena* arena) {
  T* dst = arena->AllocateArray<T>(n);
  if (src_of == nullptr) {
    const T* src = TypedData<T>(srcs[0]);
    if (has_null_rows) {
      for (size_t k = 0; k < n; ++k) {
        dst[k] = rows[k] == kNullRow ? T{} : src[rows[k]];
      }
    } else {
      for (size_t k = 0; k < n; ++k) dst[k] = src[rows[k]];
    }
    return dst;
  }
  for (size_t k = 0; k < n; ++k) {
    dst[k] = rows[k] == kNullRow ? T{}
                                 : TypedData<T>(srcs[src_of[k]])[rows[k]];
  }
  return dst;
}

}  // namespace

void AppendGatheredColumn(const ColumnVector* srcs, size_t num_srcs,
                          const uint32_t* src_of, const uint32_t* rows,
                          size_t n, ColumnBatch* out) {
  ColumnVector dst;
  dst.type = srcs[0].type;
  bool has_src_nulls = false;
  for (size_t b = 0; b < num_srcs; ++b) {
    if (srcs[b].type != dst.type) dst.type = PhysType::kValue;
    has_src_nulls |= srcs[b].nulls != nullptr;
  }
  auto src = [&](size_t k) -> const ColumnVector& {
    return srcs[src_of != nullptr ? src_of[k] : 0];
  };
  if (dst.type == PhysType::kValue) {
    auto vals = std::make_shared<std::vector<Value>>(n);
    for (size_t k = 0; k < n; ++k) {
      if (rows[k] != kNullRow) (*vals)[k] = src(k).GetValue(rows[k]);
    }
    dst.boxed = vals->data();
    out->boxed_pool.push_back(std::move(vals));
    out->cols.push_back(dst);
    return;
  }
  Arena* arena = out->arena.get();
  const bool has_null_rows =
      std::find(rows, rows + n, kNullRow) != rows + n;
  if (has_null_rows || has_src_nulls) {
    uint8_t* nulls = arena->AllocateArray<uint8_t>(n);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t r = rows[k];
      const uint8_t* src_nulls = r == kNullRow ? nullptr : src(k).nulls;
      nulls[k] = r == kNullRow ? 1 : (src_nulls != nullptr ? src_nulls[r] : 0);
    }
    dst.nulls = nulls;
  }
  switch (dst.type) {
    case PhysType::kInt64:
      dst.i64 = GatherCells<int64_t>(srcs, src_of, rows, n, has_null_rows,
                                     arena);
      break;
    case PhysType::kDouble:
      dst.f64 = GatherCells<double>(srcs, src_of, rows, n, has_null_rows,
                                    arena);
      break;
    case PhysType::kBool:
      dst.b8 = GatherCells<uint8_t>(srcs, src_of, rows, n, has_null_rows,
                                    arena);
      break;
    case PhysType::kString:
      dst.str = GatherCells<StringRef>(srcs, src_of, rows, n, has_null_rows,
                                       arena);
      break;
    case PhysType::kValue:
      break;
  }
  out->cols.push_back(dst);
}

}  // namespace calcite
