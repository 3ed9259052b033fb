#include "adapters/enumerable/aggregates.h"

#include <cmath>

#include "exec/simd.h"

namespace calcite {

bool DistinctValues::Insert(const Value& v) {
  if (v.is_int()) return InsertKey(v.AsInt(), kIntTag);
  if (v.is_double()) {
    // Integral doubles inside int64's range convert exactly, so they share
    // the int entry of the equal Int value (Value::Compare equates them).
    const double d = v.AsDouble();
    if (d == std::trunc(d) && d >= -0x1p63 && d < 0x1p63) {
      return InsertKey(static_cast<int64_t>(d),
                       std::signbit(d) && d == 0 ? kNegZeroTag : kDoubleTag);
    }
  }
  return others_.insert(v).second;
}

bool DistinctValues::InsertKey(int64_t key, uint8_t tag) {
  if ((count_ + 1) * 4 > slots_.size() * 3) {
    // Grow (or allocate) at 75% load, re-probing every live entry.
    std::vector<Slot> old(slots_.empty() ? 8 : slots_.size() * 2);
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.tag == kEmpty) continue;
      size_t i = static_cast<size_t>(simd::Mix64(static_cast<uint64_t>(s.key)));
      while (slots_[i & mask].tag != kEmpty) ++i;
      slots_[i & mask] = s;
    }
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = static_cast<size_t>(simd::Mix64(static_cast<uint64_t>(key)));;
       ++i) {
    Slot& s = slots_[i & mask];
    if (s.tag == kEmpty) {
      s.key = key;
      s.tag = tag;
      ++count_;
      return true;
    }
    if (s.key == key) return false;
  }
}

Value DistinctValues::SlotValue(const Slot& s) {
  switch (s.tag) {
    case kIntTag:
      return Value::Int(s.key);
    case kNegZeroTag:
      return Value::Double(-0.0);
    default:
      return Value::Double(static_cast<double>(s.key));
  }
}

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

  if (distinct_ != nullptr && !distinct_->Insert(v)) return Status::OK();
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
  if (distinct_ != nullptr) {
    // Set union: replay only the values this side has not seen, through the
    // same post-dedup path Add uses, so counts and sums stay consistent.
    return other.distinct_->ForEach([this](const Value& v) {
      return distinct_->Insert(v) ? AccumulateValue(v) : Status::OK();
    });
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

}  // namespace calcite
