#include "adapters/enumerable/columnar_agg.h"

#include <string>
#include <utility>

namespace calcite {

void ColumnarAggBuilder::AddNewGroups() {
  const size_t groups = group_keys_.empty() ? 1 : keys_.size();
  for (; num_groups_ < groups; ++num_groups_) {
    for (const AggregateCall& call : calls_) accs_.emplace_back(call);
  }
}

const std::vector<uint32_t>& ColumnarAggBuilder::ResolveKeys(
    const ColumnBatch& batch) {
  if (group_keys_.empty()) {
    AddNewGroups();
    global_gids_.assign(batch.ActiveCount(), 0);
    return global_gids_;
  }
  const std::vector<uint32_t>& gids = keys_.Resolve(batch, group_keys_);
  AddNewGroups();
  return gids;
}

Status ColumnarAggBuilder::FeedCall(const ColumnBatch& batch,
                                    const std::vector<uint32_t>& gids,
                                    size_t call_idx) {
  const AggregateCall& call = calls_[call_idx];
  const size_t stride = calls_.size();
  const size_t active = batch.ActiveCount();

  if (call.kind == AggKind::kCountStar) {
    if (group_keys_.empty()) {
      accs_[call_idx].AddCountStarN(static_cast<int64_t>(active));
    } else {
      for (size_t k = 0; k < active; ++k) {
        accs_[gids[k] * stride + call_idx].AddCountStarN(1);
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
    return accs_[gids[k] * stride + call_idx];
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
  const std::vector<uint32_t>& gids = ResolveKeys(batch);
  for (size_t j = 0; j < calls_.size(); ++j) {
    CALCITE_RETURN_IF_ERROR(FeedCall(batch, gids, j));
  }
  return Status::OK();
}

Status ColumnarAggBuilder::MergeFrom(const ColumnarAggBuilder& other) {
  const size_t stride = calls_.size();
  for (size_t og = 0; og < other.num_groups_; ++og) {
    const uint32_t gid = group_keys_.empty()
                             ? 0
                             : keys_.ResolveValues(other.keys_.key(
                                   static_cast<uint32_t>(og)));
    AddNewGroups();
    for (size_t j = 0; j < stride; ++j) {
      CALCITE_RETURN_IF_ERROR(
          accs_[gid * stride + j].MergeFrom(other.accs_[og * stride + j]));
    }
  }
  return Status::OK();
}

Result<ColumnBatch> ColumnarAggBuilder::EmitBatch(size_t batch_size,
                                                  const RelDataType& row_type) {
  if (!finalized_) {
    // Global aggregate over empty input still produces one row.
    AddNewGroups();
    if (!group_keys_.empty()) emit_keys_ = keys_.TakeKeys();
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
      result.push_back(std::move(emit_keys_[g * width + c]));
    }
    for (size_t j = 0; j < stride; ++j) {
      result.push_back(accs_[g * stride + j].Finish());
    }
    out.push_back(std::move(result));
  }
  if (out.empty()) return ColumnBatch{};
  return RowsToColumns(out, row_type);
}

}  // namespace calcite
