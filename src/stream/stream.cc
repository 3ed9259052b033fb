#include "stream/stream.h"

#include <map>

namespace calcite::stream {

namespace {

struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

}  // namespace

Status StreamTable::Append(Row event) {
  if (rowtime_column_ < 0 ||
      static_cast<size_t>(rowtime_column_) >= event.size()) {
    return Status::InvalidArgument("event lacks the rowtime column");
  }
  std::vector<Row>& events = rows();
  if (!events.empty()) {
    const Value& last =
        events.back()[static_cast<size_t>(rowtime_column_)];
    const Value& now = event[static_cast<size_t>(rowtime_column_)];
    if (now.Compare(last) < 0) {
      return Status::InvalidArgument(
          "stream events must arrive in rowtime order (got " +
          now.ToString() + " after " + last.ToString() + ")");
    }
  }
  events.push_back(std::move(event));
  return Status::OK();
}

Result<std::vector<Row>> StreamExecutor::Run(StreamTable* table,
                                             std::vector<Row> events,
                                             size_t batch_size,
                                             EmitFn emit) {
  if (batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  // Multiset of already-emitted rows: emission count per distinct row.
  std::map<Row, size_t, RowLess> emitted;
  std::vector<Row> all_emitted;

  size_t pos = 0;
  while (pos < events.size()) {
    size_t end = std::min(events.size(), pos + batch_size);
    for (size_t i = pos; i < end; ++i) {
      CALCITE_RETURN_IF_ERROR(table->Append(std::move(events[i])));
    }
    pos = end;

    auto result = connection_->Query(sql_);
    if (!result.ok()) return result.status();

    // Delta: rows (with multiplicity) not yet emitted. For monotonic
    // queries this is exactly the set of newly produced rows.
    std::map<Row, size_t, RowLess> current;
    for (const Row& row : result.value().rows) ++current[row];
    std::vector<Row> batch_emit;
    for (const auto& [row, count] : current) {
      size_t seen = 0;
      if (auto it = emitted.find(row); it != emitted.end()) seen = it->second;
      for (size_t i = seen; i < count; ++i) batch_emit.push_back(row);
      emitted[row] = std::max(seen, count);
    }
    if (emit && !batch_emit.empty()) emit(batch_emit);
    for (Row& row : batch_emit) all_emitted.push_back(std::move(row));
  }
  return all_emitted;
}

}  // namespace calcite::stream
