#ifndef CALCITE_EXEC_PARALLEL_EXCHANGE_H_
#define CALCITE_EXEC_PARALLEL_EXCHANGE_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "exec/column_batch.h"
#include "exec/parallel/task_scheduler.h"
#include "exec/row_batch.h"

namespace calcite {

/// The exchange operator of the parallel subsystem: a bounded
/// multi-producer single-consumer queue of batches. Parallel workers
/// Push the batches their pipeline fragment produces; the Gather side pops
/// them from the consumer thread, re-entering the ordinary single-threaded
/// puller protocol. The bound applies backpressure so a fast
/// producer fleet cannot materialize an unbounded result ahead of a slow
/// consumer.
///
/// Parallel fragments ship ColumnBatches (ColumnExchangeQueue), which move
/// only column pointers and shared storage owners through the queue; the
/// batch type is a template parameter so the queue's protocol can be
/// exercised on its own with plain RowBatches (ExchangeQueue).
template <typename BatchT>
class BasicExchangeQueue {
 public:
  /// `capacity` bounds the number of buffered batches; `num_producers` is
  /// the number of workers that will each call ProducerDone() exactly once.
  BasicExchangeQueue(size_t capacity, size_t num_producers)
      : capacity_(capacity == 0 ? 1 : capacity),
        producers_remaining_(num_producers) {}

  /// Enqueues a batch, blocking while the queue is full. Returns false if
  /// the exchange was cancelled (the producer should stop producing).
  bool Push(BatchT batch) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_cv_.wait(lock, [this] {
      return cancelled_ || queue_.size() < capacity_;
    });
    if (cancelled_) return false;
    queue_.push_back(std::move(batch));
    lock.unlock();
    not_empty_cv_.notify_one();
    return true;
  }

  /// Marks one producer finished. Once every producer is done and the
  /// buffer drains, Pop() reports end-of-stream.
  void ProducerDone() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (producers_remaining_ > 0) --producers_remaining_;
    }
    not_empty_cv_.notify_all();
  }

  /// Dequeues the next batch (consumer side). Returns nullopt when every
  /// producer has finished and the buffer is empty, or when cancelled —
  /// the caller distinguishes the two through its QueryCancelState.
  std::optional<BatchT> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_cv_.wait(lock, [this] {
      return cancelled_ || !queue_.empty() || producers_remaining_ == 0;
    });
    if (!queue_.empty() && !cancelled_) {
      BatchT batch = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      not_full_cv_.notify_one();
      return batch;
    }
    return std::nullopt;
  }

  /// Unblocks every producer and consumer; buffered batches are dropped.
  /// Called on error (via QueryCancelState) or when the consumer abandons
  /// the stream before draining it.
  void Cancel() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      cancelled_ = true;
      queue_.clear();
    }
    not_full_cv_.notify_all();
    not_empty_cv_.notify_all();
  }

 private:
  const size_t capacity_;
  std::deque<BatchT> queue_;
  size_t producers_remaining_;
  bool cancelled_ = false;
  std::mutex mu_;
  std::condition_variable not_empty_cv_;
  std::condition_variable not_full_cv_;
};

/// The columnar exchange, which ships (columns, selection) pairs without
/// touching cell data, and its row form.
using ExchangeQueue = BasicExchangeQueue<RowBatch>;
using ColumnExchangeQueue = BasicExchangeQueue<ColumnBatch>;

/// The gather operator: wraps a parallel fragment — its cancel state,
/// columnar exchange queue, and worker fleet — as an ordinary
/// single-consumer ColumnBatchPuller that hands the workers' batches on
/// unboxed (columnar consumers read them as they are; row consumers box
/// them). A popped batch owns its storage — arenas and table pins — so it
/// stays valid after the workers exit. `start` is invoked on the first pull
/// (lazy, matching the pipeline discipline that an enumeration never pulled
/// costs nothing — no threads are spawned before then) and must return the
/// TaskScheduler it submitted exactly `num_producers` worker tasks to, or
/// nullptr if it cancelled the fragment instead. If the puller is destroyed
/// before end-of-stream, the fragment is cancelled and its workers joined,
/// so no worker outlives the pipeline.
ColumnBatchPuller MakeColumnarGatherPuller(
    std::shared_ptr<QueryCancelState> cancel,
    std::shared_ptr<ColumnExchangeQueue> queue,
    std::function<std::shared_ptr<TaskScheduler>()> start);

}  // namespace calcite

#endif  // CALCITE_EXEC_PARALLEL_EXCHANGE_H_
