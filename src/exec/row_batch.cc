#include "exec/row_batch.h"

#include <memory>
#include <random>

namespace calcite {

ScanSpec ScanSpec::Normalized() const {
  ScanSpec out = *this;
  if (out.batch_size == 0) out.batch_size = 1;
  if (out.batch_size > kMaxBatchSize) out.batch_size = kMaxBatchSize;
  if (!(out.sample_fraction >= 0.0)) out.sample_fraction = 0.0;  // NaN → 0
  if (out.sample_fraction > 1.0) out.sample_fraction = 1.0;
  if (out.access_path != AccessPath::kForceIndex &&
      out.access_path != AccessPath::kForceHeap) {
    out.access_path = AccessPath::kAuto;
  }
  if (out.unit_end < out.unit_begin) out.unit_end = out.unit_begin;
  return out;
}

namespace {

RowBatchPuller SampleBatches(RowBatchPuller puller, double fraction,
                             uint64_t seed) {
  auto rng = std::make_shared<std::mt19937_64>(seed);
  auto dist = std::make_shared<std::uniform_real_distribution<double>>(0.0,
                                                                       1.0);
  return [puller = std::move(puller), fraction, rng,
          dist]() -> Result<RowBatch> {
    RowBatch out;
    // Keep pulling until we have something (or the source is exhausted):
    // a fully sampled-out chunk must not surface as a spurious
    // end-of-stream empty batch.
    for (;;) {
      auto batch = puller();
      if (!batch.ok()) return batch.status();
      if (batch.value().empty()) return out;  // upstream exhausted
      for (Row& row : batch.value()) {
        if ((*dist)(*rng) < fraction) out.push_back(std::move(row));
      }
      if (!out.empty()) return out;
    }
  };
}

RowBatchPuller ProjectBatches(RowBatchPuller puller,
                              std::vector<int> projection) {
  auto cols = std::make_shared<std::vector<int>>(std::move(projection));
  return [puller = std::move(puller), cols]() -> Result<RowBatch> {
    auto batch = puller();
    if (!batch.ok()) return batch.status();
    RowBatch out;
    out.reserve(batch.value().size());
    for (Row& row : batch.value()) {
      Row narrow;
      narrow.reserve(cols->size());
      for (int c : *cols) {
        if (c >= 0 && static_cast<size_t>(c) < row.size()) {
          narrow.push_back(std::move(row[static_cast<size_t>(c)]));
        } else {
          narrow.push_back(Value());  // out-of-range hint → NULL, not UB
        }
      }
      out.push_back(std::move(narrow));
    }
    return out;
  };
}

}  // namespace

RowBatchPuller ApplyScanSpecDecorators(RowBatchPuller puller,
                                       const ScanSpec& spec) {
  if (spec.sample_fraction < 1.0) {
    puller = SampleBatches(std::move(puller), spec.sample_fraction,
                           spec.sample_seed);
  }
  if (!spec.projection.empty()) {
    puller = ProjectBatches(std::move(puller), spec.projection);
  }
  return puller;
}

RowBatchPuller ChunkRows(std::vector<Row> rows, size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  auto data = std::make_shared<std::vector<Row>>(std::move(rows));
  auto pos = std::make_shared<size_t>(0);
  return [data, pos, batch_size]() -> Result<RowBatch> {
    RowBatch batch;
    size_t remaining = data->size() - *pos;
    size_t n = std::min(batch_size, remaining);
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(std::move((*data)[*pos + i]));
    }
    *pos += n;
    return batch;
  };
}

RowBatchPuller SliceRows(const std::vector<Row>& rows, size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  const std::vector<Row>* data = &rows;
  size_t pos = 0;
  return [data, batch_size, pos]() mutable -> Result<RowBatch> {
    size_t n = std::min(batch_size, data->size() - pos);
    RowBatch batch(data->begin() + static_cast<ptrdiff_t>(pos),
                   data->begin() + static_cast<ptrdiff_t>(pos + n));
    pos += n;
    return batch;
  };
}

Result<std::vector<Row>> DrainBatches(const RowBatchPuller& puller) {
  std::vector<Row> out;
  for (;;) {
    auto batch = puller();
    if (!batch.ok()) return batch.status();
    if (batch.value().empty()) break;
    for (Row& row : batch.value()) out.push_back(std::move(row));
  }
  return out;
}

bool ScanPredicate::Matches(const Row& row) const {
  // Width mismatches cannot arise from well-formed tables (every stored row
  // has the table's row type); treat a short row as not matching rather
  // than reading out of bounds.
  if (column < 0 || static_cast<size_t>(column) >= row.size()) return false;
  const Value& v = row[static_cast<size_t>(column)];
  switch (kind) {
    case Kind::kIsNull:
      return v.IsNull();
    case Kind::kIsNotNull:
      return !v.IsNull();
    default:
      break;
  }
  // SQL comparison: NULL on either side yields UNKNOWN, which a filter
  // treats as not passing — identical to the interpreter's fast path.
  if (v.IsNull() || literal.IsNull()) return false;
  int c = v.Compare(literal);
  switch (kind) {
    case Kind::kEquals:
      return c == 0;
    case Kind::kNotEquals:
      return c != 0;
    case Kind::kLessThan:
      return c < 0;
    case Kind::kLessThanOrEqual:
      return c <= 0;
    case Kind::kGreaterThan:
      return c > 0;
    case Kind::kGreaterThanOrEqual:
      return c >= 0;
    default:
      return false;
  }
}

bool ScanPredicatesMatch(const ScanPredicateList& predicates, const Row& row) {
  for (const ScanPredicate& pred : predicates) {
    if (!pred.Matches(row)) return false;
  }
  return true;
}

RowBatchPuller FilterSliceRows(const std::vector<Row>& rows, size_t batch_size,
                               ScanPredicateList predicates) {
  if (batch_size == 0) batch_size = 1;
  if (predicates.empty()) return SliceRows(rows, batch_size);
  const std::vector<Row>* data = &rows;
  auto preds = std::make_shared<ScanPredicateList>(std::move(predicates));
  size_t pos = 0;
  return [data, preds, batch_size, pos]() mutable -> Result<RowBatch> {
    RowBatch batch;
    while (pos < data->size() && batch.size() < batch_size) {
      const Row& row = (*data)[pos++];
      if (ScanPredicatesMatch(*preds, row)) batch.push_back(row);
    }
    return batch;
  };
}

}  // namespace calcite
