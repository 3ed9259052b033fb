#include "adapters/enumerable/aggregates.h"

namespace calcite {

Status AggAccumulator::Add(const Row& row) {
  if (call_->kind == AggKind::kCountStar) {
    ++count_;
    return Status::OK();
  }
  if (call_->args.empty()) {
    return Status::RuntimeError("aggregate " + call_->ToString() +
                                " has no argument");
  }
  int arg = call_->args[0];
  if (arg < 0 || static_cast<size_t>(arg) >= row.size()) {
    return Status::RuntimeError("aggregate argument $" + std::to_string(arg) +
                                " out of range");
  }
  const Value& v = row[static_cast<size_t>(arg)];
  if (v.IsNull()) return Status::OK();  // SQL aggregates ignore NULLs.

  if (call_->distinct) {
    if (!distinct_values_.insert(v).second) return Status::OK();
  }
  return AccumulateValue(v);
}

Status AggAccumulator::AccumulateValue(const Value& v) {
  switch (call_->kind) {
    case AggKind::kCount:
      ++count_;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      ++count_;
      if (v.is_double() || sum_is_double_) {
        if (!sum_is_double_) {
          sum_double_ = static_cast<double>(sum_int_);
          sum_is_double_ = true;
        }
        sum_double_ += v.AsDouble();
      } else if (v.is_int()) {
        sum_int_ += v.AsInt();
      } else {
        return Status::RuntimeError("SUM/AVG over non-numeric value");
      }
      break;
    case AggKind::kMin:
      if (!has_value_ || v.Compare(min_) < 0) min_ = v;
      has_value_ = true;
      break;
    case AggKind::kMax:
      if (!has_value_ || v.Compare(max_) > 0) max_ = v;
      has_value_ = true;
      break;
    case AggKind::kSingleValue:
      if (has_value_) {
        return Status::RuntimeError(
            "SINGLE_VALUE aggregate saw more than one row");
      }
      single_ = v;
      has_value_ = true;
      break;
    case AggKind::kCountStar:
      break;  // handled above
  }
  return Status::OK();
}

Status AggAccumulator::MergeFrom(const AggAccumulator& other) {
  if (call_->distinct) {
    // Set union: replay only the values this side has not seen, through the
    // same post-dedup path Add uses, so counts and sums stay consistent.
    for (const Value& v : other.distinct_values_) {
      if (distinct_values_.insert(v).second) {
        CALCITE_RETURN_IF_ERROR(AccumulateValue(v));
      }
    }
    return Status::OK();
  }
  switch (call_->kind) {
    case AggKind::kCount:
    case AggKind::kCountStar:
      count_ += other.count_;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      count_ += other.count_;
      if (other.sum_is_double_ || sum_is_double_) {
        if (!sum_is_double_) {
          sum_double_ = static_cast<double>(sum_int_);
          sum_is_double_ = true;
        }
        sum_double_ += other.sum_is_double_
                           ? other.sum_double_
                           : static_cast<double>(other.sum_int_);
      } else {
        sum_int_ += other.sum_int_;
      }
      break;
    case AggKind::kMin:
      if (other.has_value_ &&
          (!has_value_ || other.min_.Compare(min_) < 0)) {
        min_ = other.min_;
      }
      has_value_ = has_value_ || other.has_value_;
      break;
    case AggKind::kMax:
      if (other.has_value_ &&
          (!has_value_ || other.max_.Compare(max_) > 0)) {
        max_ = other.max_;
      }
      has_value_ = has_value_ || other.has_value_;
      break;
    case AggKind::kSingleValue:
      if (has_value_ && other.has_value_) {
        return Status::RuntimeError(
            "SINGLE_VALUE aggregate saw more than one row");
      }
      if (other.has_value_) {
        single_ = other.single_;
        has_value_ = true;
      }
      break;
  }
  return Status::OK();
}

Value AggAccumulator::Finish() const {
  switch (call_->kind) {
    case AggKind::kCount:
    case AggKind::kCountStar:
      return Value::Int(count_);
    case AggKind::kSum:
      if (count_ == 0) return Value::Null();
      return sum_is_double_ ? Value::Double(sum_double_)
                            : Value::Int(sum_int_);
    case AggKind::kAvg:
      if (count_ == 0) return Value::Null();
      return Value::Double((sum_is_double_ ? sum_double_
                                           : static_cast<double>(sum_int_)) /
                           static_cast<double>(count_));
    case AggKind::kMin:
      return has_value_ ? min_ : Value::Null();
    case AggKind::kMax:
      return has_value_ ? max_ : Value::Null();
    case AggKind::kSingleValue:
      return has_value_ ? single_ : Value::Null();
  }
  return Value::Null();
}

Status ComputeAggregates(const std::vector<AggregateCall>& calls,
                         const std::vector<Row>& rows, Row* out) {
  for (const AggregateCall& call : calls) {
    AggAccumulator acc(call);
    for (const Row& row : rows) {
      CALCITE_RETURN_IF_ERROR(acc.Add(row));
    }
    out->push_back(acc.Finish());
  }
  return Status::OK();
}

}  // namespace calcite
