#ifndef CALCITE_ADAPTERS_ENUMERABLE_AGGREGATES_H_
#define CALCITE_ADAPTERS_ENUMERABLE_AGGREGATES_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "rel/rel_node.h"
#include "type/value.h"
#include "util/status.h"

namespace calcite {

/// Runtime accumulator for one aggregate call (COUNT/SUM/MIN/MAX/AVG/...),
/// including DISTINCT handling. Shared by the enumerable hash aggregate, the
/// window operator, and the streaming executor.
class AggAccumulator {
 public:
  explicit AggAccumulator(const AggregateCall& call) : call_(&call) {}

  /// Feeds one input row.
  Status Add(const Row& row);

  /// Produces the aggregate result. For empty input: COUNT-like functions
  /// return 0, the others NULL (SQL semantics).
  Value Finish() const;

  /// Folds another accumulator's partial state into this one — the merge
  /// step of the partitioned (thread-local build) parallel hash aggregate.
  /// Both accumulators must have been created for the same AggregateCall.
  /// DISTINCT states merge by set union (replaying only first-seen values);
  /// SINGLE_VALUE errors if both sides saw a row, matching what a serial
  /// pass over the union of their inputs would do.
  Status MergeFrom(const AggAccumulator& other);

  // Columnar fast paths. The typed adders below feed one already-extracted
  // non-NULL value without boxing it; they must update the exact same state
  // AccumulateValue would (the columnar/row parity suite enforces it). The
  // typed variants are only legal for non-DISTINCT calls — DISTINCT dedup
  // needs the boxed value, so the columnar aggregate routes those through
  // AddNonNullValue.

  /// COUNT(*): counts n rows in one update.
  void AddCountStarN(int64_t n) { count_ += n; }

  /// Boxed add of a non-NULL value (DISTINCT dedup then the shared
  /// accumulate path) — identical to Add() after its NULL check.
  Status AddNonNullValue(const Value& v) {
    if (call_->distinct && !distinct_values_.insert(v).second) {
      return Status::OK();
    }
    return AccumulateValue(v);
  }

  /// Non-NULL int64 from an INT-class column.
  Status AddNonNullInt64(int64_t v) {
    switch (call_->kind) {
      case AggKind::kCount:
        ++count_;
        return Status::OK();
      case AggKind::kSum:
      case AggKind::kAvg:
        ++count_;
        if (sum_is_double_) {
          sum_double_ += static_cast<double>(v);
        } else {
          sum_int_ += v;
        }
        return Status::OK();
      case AggKind::kMin:
        if (has_value_ && min_.is_int()) {
          if (v < min_.AsInt()) min_ = Value::Int(v);
          return Status::OK();
        }
        return AccumulateValue(Value::Int(v));
      case AggKind::kMax:
        if (has_value_ && max_.is_int()) {
          if (v > max_.AsInt()) max_ = Value::Int(v);
          return Status::OK();
        }
        return AccumulateValue(Value::Int(v));
      default:
        return AccumulateValue(Value::Int(v));
    }
  }

  /// Non-NULL double from a DOUBLE-class column.
  Status AddNonNullDouble(double v) {
    switch (call_->kind) {
      case AggKind::kCount:
        ++count_;
        return Status::OK();
      case AggKind::kSum:
      case AggKind::kAvg:
        ++count_;
        if (!sum_is_double_) {
          sum_double_ = static_cast<double>(sum_int_);
          sum_is_double_ = true;
        }
        sum_double_ += v;
        return Status::OK();
      case AggKind::kMin:
        if (has_value_ && min_.is_double()) {
          if (v < min_.AsDouble()) min_ = Value::Double(v);
          return Status::OK();
        }
        return AccumulateValue(Value::Double(v));
      case AggKind::kMax:
        if (has_value_ && max_.is_double()) {
          if (v > max_.AsDouble()) max_ = Value::Double(v);
          return Status::OK();
        }
        return AccumulateValue(Value::Double(v));
      default:
        return AccumulateValue(Value::Double(v));
    }
  }

  /// Non-NULL string span from a VARCHAR-class column. Only boxes (copies)
  /// the string when it becomes the new MIN/MAX.
  Status AddNonNullStringView(std::string_view v) {
    switch (call_->kind) {
      case AggKind::kCount:
        ++count_;
        return Status::OK();
      case AggKind::kSum:
      case AggKind::kAvg:
        // Matches AccumulateValue's error for non-numeric input.
        return Status::RuntimeError("SUM/AVG over non-numeric value");
      case AggKind::kMin:
        if (has_value_ && min_.is_string()) {
          if (v < std::string_view(min_.AsString())) {
            min_ = Value::String(std::string(v));
          }
          return Status::OK();
        }
        return AccumulateValue(Value::String(std::string(v)));
      case AggKind::kMax:
        if (has_value_ && max_.is_string()) {
          if (v > std::string_view(max_.AsString())) {
            max_ = Value::String(std::string(v));
          }
          return Status::OK();
        }
        return AccumulateValue(Value::String(std::string(v)));
      default:
        return AccumulateValue(Value::String(std::string(v)));
    }
  }

 private:
  /// Applies one non-NULL (and, for DISTINCT, first-seen) value to the
  /// running state. Shared by Add and the DISTINCT merge path.
  Status AccumulateValue(const Value& v);

  const AggregateCall* call_;
  int64_t count_ = 0;
  double sum_double_ = 0;
  int64_t sum_int_ = 0;
  bool sum_is_double_ = false;
  Value min_;
  Value max_;
  Value single_;
  bool has_value_ = false;
  std::set<Value> distinct_values_;
};

/// Evaluates a full group: runs all `calls` over `rows` and appends results.
Status ComputeAggregates(const std::vector<AggregateCall>& calls,
                         const std::vector<Row>& rows, Row* out);

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_ENUMERABLE_AGGREGATES_H_
