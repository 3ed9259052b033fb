#include "exec/parallel/exchange.h"

namespace calcite {

namespace {

/// Per-enumeration state of a gather puller. The destructor runs when the
/// consumer drops the puller — possibly mid-stream (e.g. under a LIMIT) —
/// so it cancels the exchange first (unblocking workers parked in Push),
/// then releases the start closure (which may hold the only other scheduler
/// reference), and finally the scheduler itself, whose destructor joins the
/// workers.
struct GatherState {
  std::shared_ptr<QueryCancelState> cancel;
  std::shared_ptr<ColumnExchangeQueue> queue;
  std::function<std::shared_ptr<TaskScheduler>()> start;
  std::shared_ptr<TaskScheduler> scheduler;  // set by start() on first pull
  bool started = false;
  bool finished = false;

  ~GatherState() {
    if (started && !finished) {
      cancel->Cancel(Status::OK());  // benign: consumer stopped pulling
      queue->Cancel();
    }
    start = nullptr;    // drop any scheduler reference the closure captured
    scheduler.reset();  // joins the workers
  }
};

}  // namespace

ColumnBatchPuller MakeColumnarGatherPuller(
    std::shared_ptr<QueryCancelState> cancel,
    std::shared_ptr<ColumnExchangeQueue> queue,
    std::function<std::shared_ptr<TaskScheduler>()> start) {
  auto state = std::make_shared<GatherState>();
  state->cancel = std::move(cancel);
  state->queue = std::move(queue);
  state->start = std::move(start);
  return [state]() -> Result<ColumnBatch> {
    if (state->finished) return ColumnBatch{};
    if (!state->started) {
      state->started = true;
      state->scheduler = state->start();
      state->start = nullptr;
    }
    // Producers never push batches without live rows, so only
    // end-of-stream or cancellation yields nothing.
    auto batch = state->queue->Pop();
    if (batch.has_value()) return std::move(*batch);
    // Wait for the workers to wind down so the error (if any) is final,
    // then report it exactly once.
    state->finished = true;
    if (state->scheduler != nullptr) state->scheduler->WaitIdle();
    Status status = state->cancel->status();
    if (!status.ok()) return status;
    return ColumnBatch{};
  };
}

}  // namespace calcite
