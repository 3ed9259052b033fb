#ifndef CALCITE_STREAM_STREAM_H_
#define CALCITE_STREAM_STREAM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "schema/table.h"
#include "tools/frameworks.h"
#include "util/status.h"

namespace calcite::stream {

/// A stream: "time-ordered sets of records or events that are not persisted
/// to the disk" (§1, §7.2). Backed in the simulation by an in-memory event
/// log ordered by the rowtime column, which is declared monotonic so the
/// validator accepts windowed streaming aggregations.
class StreamTable final : public MemTable {
 public:
  /// `rowtime_column`: index of the event-time column (monotonically
  /// non-decreasing across the log).
  StreamTable(RelDataTypePtr row_type, int rowtime_column)
      : MemTable(std::move(row_type), {}), rowtime_column_(rowtime_column) {
    TableStats stat;
    stat.monotonic_columns = {rowtime_column_};
    set_statistic(std::move(stat));
  }

  bool IsStream() const override { return true; }

  int rowtime_column() const { return rowtime_column_; }

  /// Appends an event; rowtime must be >= the previous event's rowtime.
  /// Drops the cached columnar decomposition; scans already in flight keep
  /// their snapshot alive.
  Status Append(Row event);

 private:
  int rowtime_column_;
};

/// Executes a STREAM query incrementally: events are delivered to the query
/// in arrival batches, and after each batch the executor emits the *new*
/// result rows — the "incoming records, not existing ones" semantics of the
/// STREAM directive. For monotonic queries (windowed aggregations grouped
/// on TUMBLE(rowtime, ...), filtered projections of the stream) the emitted
/// union over all batches equals the batch query over the full log.
///
/// Note on windows: an aggregate row for a window is only final once the
/// stream has advanced past the window end (the watermark); unfinished
/// windows are withheld.
class StreamExecutor {
 public:
  /// `connection` must resolve the stream table named in `sql`.
  StreamExecutor(Connection* connection, std::string sql)
      : connection_(connection), sql_(std::move(sql)) {}

  /// Callback receiving newly emitted rows after each batch.
  using EmitFn = std::function<void(const std::vector<Row>&)>;

  /// Replays `events` into `table` in `batch_size`-event batches, running
  /// the query after each batch and emitting the delta. Returns all emitted
  /// rows in order.
  Result<std::vector<Row>> Run(StreamTable* table, std::vector<Row> events,
                               size_t batch_size, EmitFn emit = nullptr);

 private:
  Connection* connection_;
  std::string sql_;
};

}  // namespace calcite::stream

#endif  // CALCITE_STREAM_STREAM_H_
