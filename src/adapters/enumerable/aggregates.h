#ifndef CALCITE_ADAPTERS_ENUMERABLE_AGGREGATES_H_
#define CALCITE_ADAPTERS_ENUMERABLE_AGGREGATES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "rel/rel_node.h"
#include "type/value.h"
#include "util/status.h"

namespace calcite {

/// The values a DISTINCT aggregate call has already accumulated. Values equal
/// under Value::Compare share one entry: ints, and doubles holding an integer
/// that int64 represents exactly (so Double(2.0) is Int(2)), live in a flat
/// open-addressing int64 table; everything else lives in a hash set under
/// Value equality. Each entry keeps the representation it was first seen in,
/// so a merge replays exactly the Value a serial pass would have added.
/// NaN follows Value hashing/equality and is not pinned to either path.
class DistinctValues {
 public:
  /// Inserts `v`; true when no equal value was present.
  bool Insert(const Value& v);

  /// Insert() of Value::Int(v) without boxing it.
  bool InsertInt(int64_t v) { return InsertKey(v, kIntTag); }

  /// Calls `f(const Value&)` (returning Status) on every entry, in
  /// unspecified order, stopping at the first error.
  template <typename F>
  Status ForEach(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.tag != kEmpty) CALCITE_RETURN_IF_ERROR(f(SlotValue(s)));
    }
    for (const Value& v : others_) CALCITE_RETURN_IF_ERROR(f(v));
    return Status::OK();
  }

 private:
  // How an int-table entry was first seen: as an int, as an integral
  // double, or as -0.0 (which equals 0 but must replay with its sign).
  enum Tag : uint8_t { kEmpty = 0, kIntTag, kDoubleTag, kNegZeroTag };
  struct Slot {
    int64_t key = 0;
    uint8_t tag = kEmpty;
  };

  bool InsertKey(int64_t key, uint8_t tag);
  static Value SlotValue(const Slot& s);

  std::vector<Slot> slots_;  // power-of-two capacity, linear probing
  size_t count_ = 0;
  std::unordered_set<Value, ValueHash> others_;
};

/// Runtime accumulator for one aggregate call (COUNT/SUM/MIN/MAX/AVG/...),
/// including DISTINCT handling. Shared by the enumerable hash aggregate, the
/// window operator, and the streaming executor.
class AggAccumulator {
 public:
  explicit AggAccumulator(const AggregateCall& call)
      : call_(&call),
        distinct_(call.distinct ? std::make_unique<DistinctValues>()
                                : nullptr) {}

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
  // AccumulateValue would (the columnar/row parity suite enforces it).
  // AddNonNullInt64/Double/StringView skip DISTINCT dedup, so they are only
  // legal for non-DISTINCT calls; a DISTINCT call takes
  // AddNonNullInt64Distinct for int64 cells and AddNonNullValue otherwise.

  /// COUNT(*): counts n rows in one update.
  void AddCountStarN(int64_t n) { count_ += n; }

  /// Boxed add of a non-NULL value (DISTINCT dedup then the shared
  /// accumulate path) — identical to Add() after its NULL check.
  Status AddNonNullValue(const Value& v) {
    if (distinct_ != nullptr && !distinct_->Insert(v)) return Status::OK();
    return AccumulateValue(v);
  }

  /// Non-NULL int64 from an INT-class column for a DISTINCT call: dedups on
  /// the raw int, then accumulates it as AddNonNullInt64 does.
  Status AddNonNullInt64Distinct(int64_t v) {
    if (!distinct_->InsertInt(v)) return Status::OK();
    return AddNonNullInt64(v);
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
  std::unique_ptr<DistinctValues> distinct_;  // set iff call_->distinct
};

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_ENUMERABLE_AGGREGATES_H_
