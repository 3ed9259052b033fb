#include "exec/parallel/parallel_exec.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adapters/enumerable/columnar_agg.h"
#include "adapters/enumerable/enumerable_rels.h"
#include "exec/arena.h"
#include "exec/column_batch.h"
#include "exec/parallel/exchange.h"
#include "exec/parallel/morsel.h"
#include "exec/parallel/task_scheduler.h"
#include "exec/simd.h"
#include "rel/core.h"
#include "rex/rex_fuse.h"
#include "rex/rex_interpreter.h"

namespace calcite {

namespace {

// ---------------------------------------------------------------------------
// Fragment recognition
// ---------------------------------------------------------------------------

/// One transform stage of a morsel pipeline: exactly one of {filter,
/// project} is set. Stages reference expression trees owned by the pinned
/// plan nodes, so a FragmentSource keeps those nodes alive.
struct PipelineStage {
  RexNodePtr filter;
  const std::vector<RexNodePtr>* project = nullptr;
};

/// A recognized morsel-parallelizable fragment: a (Filter|Project)* chain
/// over a TableScan leaf, plus the leaf storage morsels index into. Built
/// on the consumer thread before any worker starts, then shared read-only
/// by every worker of the fragment. Exactly one leaf kind is set:
///  - `columns`: the table's in-memory columnar decomposition; a morsel is
///    a row range, sliced into zero-copy ColumnBatches;
///  - paged (`columns` null): a morsel is one scan unit of the table (for a
///    disk table, a run of heap pages), read by a unit-ranged OpenScan and
///    decoded through RowsToColumns.
struct FragmentSource {
  std::vector<RelNodePtr> pinned;  // fragment nodes (keep exprs alive)
  TablePtr table;
  RelDataTypePtr row_type;         // leaf row type (decodes paged units)
  std::vector<PipelineStage> stages;  // applied bottom-up
  TableColumnsPtr columns;
  size_t morsel_count = 0;  // rows of `columns`, or scan units when paged
  size_t morsel_size = 1;
};

/// Rows per morsel: small enough that the tail of a scan still spreads
/// across the pool, large enough that the atomic claim amortizes.
size_t PickMorselSize(size_t total_rows, size_t num_threads) {
  size_t target = total_rows / (num_threads * 4);
  return std::min(kDefaultMorselSize, std::max<size_t>(256, target));
}

/// Matches the fragment shape the morsel executor can run — a chain of
/// enumerable Filter/Project nodes over an enumerable TableScan — and
/// resolves its leaf storage. Returns null (the fragment stays serial) for
/// any other shape, for stream scans, and for tables with neither a
/// columnar decomposition nor scan units. Converters (EnumerableInterpreter)
/// and every other operator stop the chain — fragments never cross a
/// calling-convention boundary.
std::shared_ptr<const FragmentSource> RecognizeMorselPipeline(
    const RelNode& root, const ExecOptions& opts) {
  auto out = std::make_shared<FragmentSource>();
  const RelNode* cur = &root;
  std::vector<PipelineStage> top_down;
  for (;;) {
    if (cur->convention() != Convention::Enumerable()) return nullptr;
    out->pinned.push_back(cur->shared_from_this());
    if (const auto* filter = dynamic_cast<const Filter*>(cur)) {
      PipelineStage stage;
      stage.filter = filter->condition();
      top_down.push_back(std::move(stage));
      cur = filter->input(0).get();
      continue;
    }
    if (const auto* project = dynamic_cast<const Project*>(cur)) {
      PipelineStage stage;
      stage.project = &project->exprs();
      top_down.push_back(std::move(stage));
      cur = project->input(0).get();
      continue;
    }
    const auto* scan = dynamic_cast<const TableScan*>(cur);
    // Streams are time-ordered by contract (Table::IsStream) and morsel
    // workers racing for row ranges would interleave their events, so
    // stream scans always stay serial.
    if (scan == nullptr || scan->table()->IsStream()) return nullptr;
    out->table = scan->table();
    out->row_type = scan->row_type();
    break;
  }
  out->stages.assign(top_down.rbegin(), top_down.rend());

  TypeFactory type_factory;
  out->columns = out->table->MaterializedColumns(type_factory);
  if (out->columns != nullptr) {
    out->morsel_count = out->columns->num_rows;
    out->morsel_size = PickMorselSize(out->morsel_count, opts.num_threads);
  } else {
    out->morsel_count = out->table->ScanUnitCount();
    if (out->morsel_count == 0) return nullptr;
  }
  return out;
}

/// Worker-local fused view of one pipeline stage: a FusedExpr per filter
/// predicate / projection expression. FusedExpr caches a compiled bytecode
/// program and register scratch and is not thread-safe (same contract as
/// ArenaPool), so every worker builds its own list next to its scratch
/// pool instead of sharing the RexNode-level stages directly.
struct FusedStage {
  std::unique_ptr<FusedExpr> filter;
  std::vector<FusedExpr> project;
};

std::vector<FusedStage> BuildFusedStages(
    const std::vector<PipelineStage>& stages, bool enable_fusion) {
  std::vector<FusedStage> out;
  out.reserve(stages.size());
  for (const PipelineStage& stage : stages) {
    FusedStage fused;
    if (stage.filter != nullptr) {
      fused.filter = std::make_unique<FusedExpr>(stage.filter, enable_fusion);
    } else {
      fused.project.reserve(stage.project->size());
      for (const RexNodePtr& expr : *stage.project) {
        fused.project.emplace_back(expr, enable_fusion);
      }
    }
    out.push_back(std::move(fused));
  }
  return out;
}

/// Runs the fragment's stage chain over one batch — the same columnar
/// kernels as the serial pipelines, whichever worker thread runs it: filter
/// stages narrow the batch's selection (fused bytecode where the predicate
/// lowers), project stages rebuild the batch densely (selection consumed on
/// write). `scratch_pool` recycles filter-scratch arenas; it and `stages`
/// are worker-local, so acquire/release and the fused interpreter state
/// stay on one thread. Project outputs get a *fresh* arena each time: those
/// batches may cross the exchange to the consumer thread, and an arena must
/// never be recycled by one thread while another still reads it.
Status ApplyStagesColumnar(std::vector<FusedStage>* stages,
                           ArenaPool* scratch_pool, ColumnBatch* batch) {
  for (FusedStage& stage : *stages) {
    if (batch->ActiveCount() == 0) return Status::OK();
    if (stage.filter != nullptr) {
      if (!batch->has_sel) {
        batch->sel.resize(batch->num_rows);
        for (size_t i = 0; i < batch->num_rows; ++i) {
          batch->sel[i] = static_cast<uint32_t>(i);
        }
        batch->has_sel = true;
      }
      ArenaPtr scratch = scratch_pool->Acquire();
      CALCITE_RETURN_IF_ERROR(
          stage.filter->NarrowSelection(*batch, scratch, &batch->sel));
    } else {
      ColumnBatch out;
      out.arena = std::make_shared<Arena>();
      out.num_rows = batch->ActiveCount();
      out.ShareStorage(*batch);
      for (FusedExpr& expr : stage.project) {
        CALCITE_RETURN_IF_ERROR(expr.AppendEvalColumn(*batch, &out));
      }
      *batch = std::move(out);
    }
  }
  return Status::OK();
}

/// The one per-worker reader of every parallel fragment: claims morsels,
/// turns each into leaf ColumnBatches of at most batch_size rows, and runs
/// the stage chain on them. Pipeline, aggregate and probe workers differ
/// only in what they do with the batches Next() hands out.
class MorselReader {
 public:
  MorselReader(std::shared_ptr<const FragmentSource> src,
               MorselSource* morsels, QueryCancelState* cancel,
               const ExecOptions& opts)
      : src_(std::move(src)),
        morsels_(morsels),
        cancel_(cancel),
        batch_size_(opts.batch_size),
        stages_(BuildFusedStages(src_->stages, opts.enable_fusion)) {}

  /// The next batch with at least one live row. nullopt once the morsels
  /// run dry or the fragment is cancelled — a failure is recorded in the
  /// cancel state first, so callers only need to stop.
  std::optional<ColumnBatch> Next() {
    while (!cancel_->cancelled()) {
      Result<ColumnBatch> leaf = NextLeafBatch();
      if (!leaf.ok()) {
        cancel_->Cancel(leaf.status());
        break;
      }
      ColumnBatch batch = std::move(leaf).value();
      if (batch.AtEnd()) break;
      Status status = ApplyStagesColumnar(&stages_, &scratch_pool_, &batch);
      if (!status.ok()) {
        cancel_->Cancel(std::move(status));
        break;
      }
      if (batch.ActiveCount() > 0) return batch;
    }
    return std::nullopt;
  }

 private:
  /// The next unfiltered leaf batch; AtEnd() once no morsel is left.
  Result<ColumnBatch> NextLeafBatch() {
    for (;;) {
      if (pos_ < end_) {
        const size_t n = std::min(batch_size_, end_ - pos_);
        ColumnBatch batch = SliceTableColumns(src_->columns, pos_, n, src_);
        pos_ += n;
        return batch;
      }
      if (unit_scan_) {
        CALCITE_ASSIGN_OR_RETURN(RowBatch rows, unit_scan_());
        if (!rows.empty()) return RowsToColumns(rows, *src_->row_type);
        unit_scan_ = nullptr;
      }
      std::optional<Morsel> morsel = morsels_->Next();
      if (!morsel.has_value()) return ColumnBatch{};
      if (src_->columns != nullptr) {
        pos_ = morsel->begin;
        end_ = morsel->end;
      } else {
        // One unit-ranged OpenScan per morsel: the table streams its own
        // pages (page run at a time through the buffer pool), so a worker
        // never holds more than the unit it claimed.
        ScanSpec spec;
        spec.batch_size = batch_size_;
        spec.unit_begin = morsel->begin;
        spec.unit_end = morsel->end;
        CALCITE_ASSIGN_OR_RETURN(unit_scan_, src_->table->OpenScan(spec));
      }
    }
  }

  std::shared_ptr<const FragmentSource> src_;
  MorselSource* morsels_;
  QueryCancelState* cancel_;
  const size_t batch_size_;
  std::vector<FusedStage> stages_;
  ArenaPool scratch_pool_;
  size_t pos_ = 0;  // row range of the claimed morsel (columnar leaf)
  size_t end_ = 0;
  RowBatchPuller unit_scan_;  // scan of the claimed unit (paged leaf)
};

// ---------------------------------------------------------------------------
// Morsel-parallel scan -> filter -> project pipeline
// ---------------------------------------------------------------------------

/// Workers push their batches through the exchange without materializing a
/// single row; the gather boxes survivors on the consumer thread.
Result<RowBatchPuller> ExecutePipelineParallel(
    std::shared_ptr<const FragmentSource> src, const ExecOptions& opts) {
  const size_t threads = opts.num_threads;
  auto cancel = std::make_shared<QueryCancelState>();
  auto queue = std::make_shared<ColumnExchangeQueue>(threads * 2, threads);
  auto start = [src, cancel, queue, opts]() -> std::shared_ptr<TaskScheduler> {
    auto morsels =
        std::make_shared<MorselSource>(src->morsel_count, src->morsel_size);
    auto scheduler = std::make_shared<TaskScheduler>(opts.num_threads);
    for (size_t t = 0; t < opts.num_threads; ++t) {
      scheduler->Submit([src, cancel, queue, morsels, opts]() {
        MorselReader reader(src, morsels.get(), cancel.get(), opts);
        while (auto batch = reader.Next()) {
          if (!queue->Push(std::move(*batch))) break;
        }
        if (cancel->cancelled()) queue->Cancel();
        queue->ProducerDone();
      });
    }
    return scheduler;
  };
  return MakeColumnarGatherPuller(std::move(cancel), std::move(queue),
                                  std::move(start));
}

// ---------------------------------------------------------------------------
// Partitioned hash aggregate (thread-local build + merge)
// ---------------------------------------------------------------------------

/// Each worker feeds its batches to a worker-local ColumnarAggBuilder; the
/// consumer merges the builders (accumulator merge, not re-aggregation)
/// once every morsel has been aggregated. Group output order is first-seen
/// order across the merge — unspecified across threads (workers race for
/// morsels).
Result<RowBatchPuller> ExecuteAggregateParallel(
    const Aggregate& agg, std::shared_ptr<const FragmentSource> src,
    const ExecOptions& opts) {
  RelNodePtr self = agg.shared_from_this();  // pins group_keys_/agg_calls_
  const Aggregate* node = &agg;
  auto merged =
      std::make_shared<ColumnarAggBuilder>(agg.group_keys(), agg.agg_calls());
  auto built = std::make_shared<bool>(false);
  return RowBatchPuller([self, node, src, merged, built,
                         opts]() -> Result<RowBatch> {
    if (!*built) {
      // The scheduler lives only for the build phase; WaitIdle orders the
      // workers' writes before the merge reads the locals.
      const size_t threads = opts.num_threads;
      QueryCancelState cancel;
      std::vector<std::unique_ptr<ColumnarAggBuilder>> locals;
      for (size_t t = 0; t < threads; ++t) {
        locals.push_back(std::make_unique<ColumnarAggBuilder>(
            node->group_keys(), node->agg_calls()));
      }
      {
        MorselSource morsels(src->morsel_count, src->morsel_size);
        TaskScheduler scheduler(threads);
        for (size_t t = 0; t < threads; ++t) {
          ColumnarAggBuilder* local = locals[t].get();
          scheduler.Submit([&src, &morsels, &cancel, &opts, local]() {
            MorselReader reader(src, &morsels, &cancel, opts);
            while (auto batch = reader.Next()) {
              Status status = local->Feed(*batch);
              if (!status.ok()) cancel.Cancel(std::move(status));
            }
          });
        }
        scheduler.WaitIdle();
      }
      CALCITE_RETURN_IF_ERROR(cancel.status());
      for (const auto& local : locals) {
        CALCITE_RETURN_IF_ERROR(merged->MergeFrom(*local));
      }
      *built = true;
    }
    return merged->EmitBatch(opts.batch_size);
  });
}

// ---------------------------------------------------------------------------
// Partitioned hash join
// ---------------------------------------------------------------------------

/// Hashes a block of extracted build-side join keys at once (HashRowKey64
/// semantics). All-single-int64 blocks gather the raw keys into a scratch
/// column and hash in SIMD lanes; everything else hashes per row.
void HashKeyBlock(const std::vector<Row>& keys, std::vector<uint64_t>* out,
                  std::vector<int64_t>* i64_scratch) {
  const size_t n = keys.size();
  out->resize(n);
  bool single_int = n >= 8;
  for (size_t j = 0; single_int && j < n; ++j) {
    single_int = keys[j].size() == 1 && keys[j][0].is_int();
  }
  if (single_int) {
    i64_scratch->resize(n);
    for (size_t j = 0; j < n; ++j) (*i64_scratch)[j] = keys[j][0].AsInt();
    simd::HashI64(i64_scratch->data(), n, out->data());
    return;
  }
  for (size_t j = 0; j < n; ++j) (*out)[j] = HashRowKey64(keys[j]);
}

/// Probe-side counterpart of HashKeyBlock: HashRowKey64 of every live row's
/// left join key, computed column-at-a-time off the key columns (HashColumn
/// agrees with HashValue64 cell by cell, NULLs included).
void HashKeyColumns(const ColumnBatch& batch,
                    const std::vector<std::pair<int, int>>& keys,
                    std::vector<uint64_t>* out,
                    std::vector<uint64_t>* cell_scratch) {
  const size_t n = batch.ActiveCount();
  const uint32_t* sel = batch.has_sel ? batch.sel.data() : nullptr;
  out->resize(n);
  if (keys.size() == 1) {
    HashColumn(batch.cols[static_cast<size_t>(keys[0].first)], sel, n,
               out->data());
    return;
  }
  out->assign(n, kKeyHashSeed);
  cell_scratch->resize(n);
  for (const auto& key : keys) {
    HashColumn(batch.cols[static_cast<size_t>(key.first)], sel, n,
               cell_scratch->data());
    for (size_t j = 0; j < n; ++j) {
      (*out)[j] = FoldKeyHash((*out)[j], (*cell_scratch)[j]);
    }
  }
}

/// One partition of the build-side table: build entries in insertion order
/// plus a hash index over them. The index is keyed by the full 64-bit key
/// hash (precomputed in blocks on both build and probe side); probes verify
/// candidates with Row equality, so the hash only routes.
struct BuildPartition {
  std::vector<std::pair<Row, size_t>> entries;  // (key, build row index)
  std::unordered_map<uint64_t, std::vector<uint32_t>> index;
};

/// Shared read-only state of a parallel join probe: the drained build side,
/// the per-partition hash tables (each written by exactly one build task,
/// read by every probe worker), and the matched flags outer joins need.
struct ParallelJoinShared {
  std::shared_ptr<const FragmentSource> probe;
  RelNodePtr self;        // pins condition / row types
  RelNodePtr build_node;  // right input, drained serially
  std::vector<std::pair<int, int>> keys;
  std::vector<RexNodePtr> remaining;
  JoinType join_type;
  size_t left_width = 0;
  size_t right_width = 0;
  size_t partitions = 0;
  std::vector<Row> right_data;
  std::vector<BuildPartition> tables;
  /// Matched flags are racy-by-design across probe workers: only ever set
  /// to true, read after the workers have been joined.
  std::unique_ptr<std::atomic<bool>[]> right_matched;
};

/// Drains the build side through its own (possibly itself parallel) batch
/// pipeline and builds the partitioned hash table: one classify pass over
/// morsels of the build rows, then one insert task per partition — no two
/// tasks ever touch the same partition, so the build is lock-free.
Status BuildPartitionedTable(ParallelJoinShared* shared,
                             TaskScheduler* scheduler,
                             const ExecOptions& opts) {
  auto build = shared->build_node->ExecuteBatched(opts);
  if (!build.ok()) return build.status();
  const RowBatchPuller& pull = build.value();
  for (;;) {
    auto batch = pull();
    if (!batch.ok()) return batch.status();
    if (batch.value().empty()) break;
    for (Row& row : batch.value()) {
      shared->right_data.push_back(std::move(row));
    }
  }

  const size_t threads = opts.num_threads;
  const size_t partitions = shared->partitions;
  // Classify pass: workers claim morsels of the build rows and bucket
  // (key, row index) pairs by key partition, so the insert pass moves the
  // already-built keys instead of recomputing them. NULL keys never match
  // and are skipped — for RIGHT/FULL they surface through the unmatched
  // tail.
  struct KeyedIndex {
    Row key;
    size_t row;
    uint64_t hash;
  };
  std::vector<std::vector<std::vector<KeyedIndex>>> buckets(
      threads, std::vector<std::vector<KeyedIndex>>(partitions));
  {
    MorselSource morsels(shared->right_data.size(),
                         PickMorselSize(shared->right_data.size(), threads));
    for (size_t t = 0; t < threads; ++t) {
      std::vector<std::vector<KeyedIndex>>* mine = &buckets[t];
      ParallelJoinShared* sh = shared;
      scheduler->Submit([sh, mine, &morsels, partitions]() {
        std::vector<Row> keys;
        std::vector<size_t> rows;
        std::vector<uint64_t> hashes;
        std::vector<int64_t> scratch;
        while (auto morsel = morsels.Next()) {
          // Extract the morsel's keys, then hash them in one block.
          keys.clear();
          rows.clear();
          for (size_t i = morsel->begin; i < morsel->end; ++i) {
            auto key = JoinSideKey(sh->right_data[i], sh->keys,
                                   /*left_side=*/false);
            if (!key.has_value()) continue;
            keys.push_back(std::move(*key));
            rows.push_back(i);
          }
          HashKeyBlock(keys, &hashes, &scratch);
          for (size_t j = 0; j < keys.size(); ++j) {
            (*mine)[hashes[j] % partitions].push_back(
                KeyedIndex{std::move(keys[j]), rows[j], hashes[j]});
          }
        }
      });
    }
    scheduler->WaitIdle();
  }
  // Insert pass: partition p is owned by exactly one task. Inserts reuse
  // the hashes the classify pass computed.
  shared->tables.resize(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    ParallelJoinShared* sh = shared;
    std::vector<std::vector<std::vector<KeyedIndex>>>* all = &buckets;
    scheduler->Submit([sh, all, p]() {
      BuildPartition& part = sh->tables[p];
      for (auto& worker_buckets : *all) {
        for (KeyedIndex& entry : worker_buckets[p]) {
          const uint32_t eid = static_cast<uint32_t>(part.entries.size());
          part.index[entry.hash].push_back(eid);
          part.entries.emplace_back(std::move(entry.key), entry.row);
        }
      }
    });
  }
  scheduler->WaitIdle();

  shared->right_matched =
      std::make_unique<std::atomic<bool>[]>(shared->right_data.size());
  for (size_t i = 0; i < shared->right_data.size(); ++i) {
    shared->right_matched[i].store(false, std::memory_order_relaxed);
  }
  return Status::OK();
}

/// Probe worker: reads left batches off the fragment's morsel reader,
/// hashes their key columns, probes the read-only partition tables, and
/// emits per the join type. Like the serial columnar probe, a key is boxed
/// only on a hash hit and a left row is gathered only when it emits.
void RunProbeWorker(const ParallelJoinShared& shared, MorselReader* reader,
                    QueryCancelState* cancel, ExchangeQueue* queue,
                    size_t batch_size) {
  RowBatch out;
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> cell_scratch;
  Row key(shared.keys.size());
  // Hands accumulated output to the exchange in <= batch_size chunks.
  auto flush = [&]() -> bool {
    size_t pos = 0;
    while (pos < out.size()) {
      size_t n = std::min(batch_size, out.size() - pos);
      auto first = out.begin() + static_cast<ptrdiff_t>(pos);
      RowBatch chunk(std::make_move_iterator(first),
                     std::make_move_iterator(first + static_cast<ptrdiff_t>(n)));
      pos += n;
      if (!queue->Push(std::move(chunk))) return false;
    }
    out.clear();
    return true;
  };
  // Probes one live left row; false once the fragment failed.
  auto probe_row = [&](const ColumnBatch& cols, size_t k) -> bool {
    const size_t i = cols.ActiveIndex(k);
    bool matched = false;
    Row lrow;
    bool have_lrow = false;
    auto lrow_ref = [&]() -> Row& {
      if (!have_lrow) {
        lrow = cols.GatherRow(i);
        have_lrow = true;
      }
      return lrow;
    };
    bool null_key = false;  // NULL keys never match
    for (const auto& lr : shared.keys) {
      null_key |= cols.cols[static_cast<size_t>(lr.first)].IsNullAt(i);
    }
    const uint64_t h = hashes[k];
    const BuildPartition& part = shared.tables[h % shared.partitions];
    auto it = null_key ? part.index.end() : part.index.find(h);
    if (it != part.index.end()) {
      for (size_t c = 0; c < shared.keys.size(); ++c) {
        key[c] = cols.cols[static_cast<size_t>(shared.keys[c].first)]
                     .GetValue(i);
      }
      for (uint32_t eid : it->second) {
        if (!(part.entries[eid].first == key)) continue;  // collision
        const size_t ri = part.entries[eid].second;
        Row combined = ConcatRows(lrow_ref(), shared.right_data[ri]);
        bool pass = true;
        for (const RexNodePtr& pred : shared.remaining) {
          auto result = RexInterpreter::EvalPredicate(pred, combined);
          if (!result.ok()) {
            cancel->Cancel(result.status());
            return false;
          }
          if (!result.value()) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        matched = true;
        shared.right_matched[ri].store(true, std::memory_order_relaxed);
        if (JoinEmitsCombinedRows(shared.join_type)) {
          out.push_back(std::move(combined));
        }
        if (shared.join_type == JoinType::kSemi) break;
      }
    }
    if (JoinEmitsLeftRow(shared.join_type, matched)) {
      JoinEmitPerLeftRow(shared.join_type, matched, std::move(lrow_ref()),
                         shared.right_width, &out);
    }
    return true;
  };
  while (auto batch = reader->Next()) {
    HashKeyColumns(*batch, shared.keys, &hashes, &cell_scratch);
    const size_t active = batch->ActiveCount();
    bool ok = true;
    for (size_t k = 0; ok && k < active; ++k) ok = probe_row(*batch, k);
    if (!ok || !flush()) break;
  }
}

/// Consumer-side tail of a RIGHT/FULL join: emitted after the gather
/// reports end-of-stream, i.e. after every probe worker has been joined
/// (which orders their matched-flag writes before these reads).
struct JoinTailState {
  bool in_tail = false;
  size_t pos = 0;
};

Result<RowBatchPuller> ExecuteHashJoinParallel(
    const Join& join, std::vector<std::pair<int, int>> keys,
    std::vector<RexNodePtr> remaining,
    std::shared_ptr<const FragmentSource> probe, const ExecOptions& opts) {
  const size_t threads = opts.num_threads;
  const size_t batch_size = opts.batch_size;
  auto shared = std::make_shared<ParallelJoinShared>();
  shared->probe = std::move(probe);
  shared->self = join.shared_from_this();
  shared->build_node = join.input(1);
  shared->keys = std::move(keys);
  shared->remaining = std::move(remaining);
  shared->join_type = join.join_type();
  shared->left_width = join.input(0)->row_type()->fields().size();
  shared->right_width = join.input(1)->row_type()->fields().size();
  shared->partitions = threads;

  auto cancel = std::make_shared<QueryCancelState>();
  auto queue = std::make_shared<ExchangeQueue>(threads * 2, threads);
  auto start = [shared, cancel, queue,
                opts]() -> std::shared_ptr<TaskScheduler> {
    auto scheduler = std::make_shared<TaskScheduler>(opts.num_threads);
    Status status = BuildPartitionedTable(shared.get(), scheduler.get(), opts);
    if (!status.ok()) {
      cancel->Cancel(std::move(status));
      queue->Cancel();
      return scheduler;  // idle; the gather still joins it
    }
    auto morsels = std::make_shared<MorselSource>(shared->probe->morsel_count,
                                                  shared->probe->morsel_size);
    for (size_t t = 0; t < opts.num_threads; ++t) {
      scheduler->Submit([shared, cancel, queue, morsels, opts]() {
        MorselReader reader(shared->probe, morsels.get(), cancel.get(), opts);
        RunProbeWorker(*shared, &reader, cancel.get(), queue.get(),
                       opts.batch_size);
        if (cancel->cancelled()) queue->Cancel();
        queue->ProducerDone();
      });
    }
    return scheduler;
  };

  RowBatchPuller gather = MakeGatherPuller(cancel, queue, std::move(start));
  auto tail = std::make_shared<JoinTailState>();
  return RowBatchPuller([gather, shared, tail,
                         batch_size]() -> Result<RowBatch> {
    if (!tail->in_tail) {
      auto batch = gather();
      if (!batch.ok()) return batch;
      if (!batch.value().empty()) return batch;
      tail->in_tail = true;
    }
    if (shared->join_type == JoinType::kRight ||
        shared->join_type == JoinType::kFull) {
      RowBatch out;
      while (tail->pos < shared->right_data.size() &&
             out.size() < batch_size) {
        size_t i = tail->pos++;
        if (!shared->right_matched[i].load(std::memory_order_relaxed)) {
          out.push_back(
              PadNullLeft(shared->left_width, shared->right_data[i]));
        }
      }
      if (!out.empty()) return out;
    }
    return RowBatch{};
  });
}

}  // namespace

std::optional<Result<RowBatchPuller>> TryExecuteParallel(
    const RelNode& node, const ExecOptions& raw_opts) {
  ExecOptions opts = raw_opts.Normalized();
  if (opts.num_threads < 2 || !opts.enable_columnar) return std::nullopt;

  const auto* agg = dynamic_cast<const Aggregate*>(&node);
  const auto* join = dynamic_cast<const Join*>(&node);
  std::vector<std::pair<int, int>> keys;
  std::vector<RexNodePtr> remaining;
  if (join != nullptr && !join->AnalyzeEquiKeys(&keys, &remaining)) {
    return std::nullopt;
  }
  const RelNode& pipeline = agg != nullptr    ? *agg->input(0)
                            : join != nullptr ? *join->input(0)
                                              : node;
  auto src = RecognizeMorselPipeline(pipeline, opts);
  if (src == nullptr) return std::nullopt;
  if (agg != nullptr) return ExecuteAggregateParallel(*agg, src, opts);
  if (join != nullptr) {
    return ExecuteHashJoinParallel(*join, std::move(keys),
                                   std::move(remaining), src, opts);
  }
  return ExecutePipelineParallel(src, opts);
}

}  // namespace calcite
