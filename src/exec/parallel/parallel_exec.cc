#include "exec/parallel/parallel_exec.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "adapters/enumerable/columnar_agg.h"
#include "adapters/enumerable/enumerable_rels.h"
#include "exec/arena.h"
#include "exec/column_batch.h"
#include "exec/parallel/exchange.h"
#include "exec/parallel/morsel.h"
#include "exec/parallel/task_scheduler.h"
#include "rel/core.h"
#include "rex/rex_fuse.h"

namespace calcite {

namespace {

// ---------------------------------------------------------------------------
// Fragment recognition
// ---------------------------------------------------------------------------

/// One transform stage of a morsel pipeline: a projection when `project`
/// is set, else a filter with the conjuncts `filter`. Stages reference
/// expression trees owned by the pinned plan nodes, so a FragmentSource
/// keeps those nodes alive.
struct PipelineStage {
  std::vector<RexNodePtr> filter;
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
/// A Filter directly over the scan is split as the serial filter splits it
/// (SplitPushdown): its simple conjuncts are `pushed` into the leaf — the
/// unit-ranged OpenScan's ScanSpec, or `leaf_filter` over each columnar
/// slice — and only the residual stays a stage.
struct FragmentSource {
  std::vector<RelNodePtr> pinned;  // fragment nodes (keep exprs alive)
  TablePtr table;
  RelDataTypePtr row_type;         // leaf row type (decodes paged units)
  std::vector<PipelineStage> stages;  // applied bottom-up
  ScanPredicateList pushed;
  PushedPredicates leaf_filter;  // `pushed`, for the columnar leaf
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
/// any other shape, for stream scans, for tables with neither a columnar
/// decomposition nor scan units, and for tables that fit in one morsel
/// (one worker would get all the work). Converters (EnumerableInterpreter)
/// and every other operator stop the chain — fragments never cross a
/// calling-convention boundary.
std::shared_ptr<const FragmentSource> RecognizeMorselPipeline(
    const RelNode& root, const ExecOptions& opts) {
  auto out = std::make_shared<FragmentSource>();
  const RelNode* cur = &root;
  std::vector<PipelineStage> top_down;
  const Filter* scan_filter = nullptr;  // the Filter right above the scan
  for (;;) {
    if (cur->convention() != Convention::Enumerable()) return nullptr;
    out->pinned.push_back(cur->shared_from_this());
    if (const auto* filter = dynamic_cast<const Filter*>(cur)) {
      PipelineStage stage;
      stage.filter = {filter->condition()};
      top_down.push_back(std::move(stage));
      scan_filter = filter;
      cur = filter->input(0).get();
      continue;
    }
    if (const auto* project = dynamic_cast<const Project*>(cur)) {
      PipelineStage stage;
      stage.project = &project->exprs();
      top_down.push_back(std::move(stage));
      scan_filter = nullptr;
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
  if (scan_filter != nullptr) {
    FilterPushdown split = SplitPushdown(*scan_filter);
    if (!split.pushed.empty()) {
      out->pushed = std::move(split.pushed);
      top_down.back().filter = std::move(split.residual);
      if (top_down.back().filter.empty()) top_down.pop_back();
    }
  }
  out->stages.assign(top_down.rbegin(), top_down.rend());

  TypeFactory type_factory;
  out->columns = out->table->MaterializedColumns(type_factory);
  if (out->columns != nullptr) {
    out->morsel_count = out->columns->num_rows;
    out->morsel_size = PickMorselSize(out->morsel_count, opts.num_threads);
    if (out->morsel_count <= out->morsel_size) return nullptr;
    out->leaf_filter = PushedPredicates(out->pushed);
  } else {
    out->morsel_count = out->table->ScanUnitCount();
    if (out->morsel_count <= 1) return nullptr;
  }
  return out;
}

/// Worker-local view of one pipeline stage: a FusedExpr per filter
/// conjunct / projection expression. FusedExpr caches a compiled bytecode
/// program and register scratch and is not thread-safe, so every worker
/// builds its own list instead of sharing the RexNode-level stages
/// directly.
struct FusedStage {
  bool is_filter = false;
  std::vector<FusedExpr> exprs;
};

std::vector<FusedStage> BuildFusedStages(
    const std::vector<PipelineStage>& stages) {
  std::vector<FusedStage> out;
  out.reserve(stages.size());
  for (const PipelineStage& stage : stages) {
    FusedStage fused;
    fused.is_filter = stage.project == nullptr;
    const std::vector<RexNodePtr>& exprs =
        fused.is_filter ? stage.filter : *stage.project;
    fused.exprs.reserve(exprs.size());
    for (const RexNodePtr& expr : exprs) fused.exprs.emplace_back(expr);
    out.push_back(std::move(fused));
  }
  return out;
}

/// Runs the fragment's stage chain over one batch — the same FusedExpr
/// evaluation as the serial pipelines, whichever worker thread runs it:
/// filter stages narrow the batch's selection conjunct by conjunct,
/// project stages rebuild the batch densely (selection consumed on write).
/// `stages` is worker-local, so the fused interpreter state stays on one
/// thread. Project outputs get a *fresh* arena each time: those batches may
/// cross the exchange to the consumer thread, and an arena must never be
/// recycled by one thread while another still reads it.
Status ApplyStagesColumnar(std::vector<FusedStage>* stages,
                           ColumnBatch* batch) {
  for (FusedStage& stage : *stages) {
    if (batch->ActiveCount() == 0) return Status::OK();
    if (stage.is_filter) {
      CALCITE_RETURN_IF_ERROR(NarrowByConjuncts(&stage.exprs, batch));
    } else {
      ColumnBatch out;
      out.arena = std::make_shared<Arena>();
      out.num_rows = batch->ActiveCount();
      out.ShareStorage(*batch);
      for (FusedExpr& expr : stage.exprs) {
        CALCITE_RETURN_IF_ERROR(expr.AppendEvalColumn(*batch, &out));
      }
      *batch = std::move(out);
    }
  }
  return Status::OK();
}

/// The one per-worker reader of every parallel fragment: claims morsels,
/// turns each into leaf ColumnBatches of at most batch_size rows, and runs
/// the stage chain on them. Pipeline and aggregate workers differ
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
        stages_(BuildFusedStages(src_->stages)) {}

  /// Start of the first (lowest) morsel this reader claimed; SIZE_MAX
  /// before its first claim.
  size_t first_morsel() const { return first_morsel_; }

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
      Status status = ApplyStagesColumnar(&stages_, &batch);
      if (!status.ok()) {
        cancel_->Cancel(std::move(status));
        break;
      }
      if (batch.ActiveCount() > 0) return batch;
    }
    return std::nullopt;
  }

 private:
  /// The next leaf batch with a row passing the pushed predicates; AtEnd()
  /// once no morsel is left.
  Result<ColumnBatch> NextLeafBatch() {
    for (;;) {
      if (pos_ < end_) {
        const size_t n = std::min(batch_size_, end_ - pos_);
        ColumnBatch batch = SliceTableColumns(src_->columns, pos_, n, src_);
        pos_ += n;
        if (src_->leaf_filter.Apply(&batch)) return batch;
        continue;
      }
      if (unit_scan_) {
        CALCITE_ASSIGN_OR_RETURN(RowBatch rows, unit_scan_());
        if (!rows.empty()) return RowsToColumns(rows, *src_->row_type);
        unit_scan_ = nullptr;
      }
      std::optional<Morsel> morsel = morsels_->Next();
      if (!morsel.has_value()) return ColumnBatch{};
      first_morsel_ = std::min(first_morsel_, morsel->begin);
      if (src_->columns != nullptr) {
        pos_ = morsel->begin;
        end_ = morsel->end;
      } else {
        // One unit-ranged OpenScan per morsel: the table streams its own
        // pages (page run at a time through the buffer pool), so a worker
        // never holds more than the unit it claimed.
        ScanSpec spec;
        spec.batch_size = batch_size_;
        spec.predicates = src_->pushed;
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
  size_t first_morsel_ = SIZE_MAX;
  size_t pos_ = 0;  // row range of the claimed morsel (columnar leaf)
  size_t end_ = 0;
  RowBatchPuller unit_scan_;  // scan of the claimed unit (paged leaf)
};

// ---------------------------------------------------------------------------
// Morsel-parallel scan -> filter -> project pipeline
// ---------------------------------------------------------------------------

/// Workers push their batches through the exchange without materializing a
/// single row, and the gather hands them on as they are.
Result<ColumnBatchPuller> ExecutePipelineParallel(
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
Result<ColumnBatchPuller> ExecuteAggregateParallel(
    const Aggregate& agg, std::shared_ptr<const FragmentSource> src,
    const ExecOptions& opts) {
  RelNodePtr self = agg.shared_from_this();  // pins group_keys_/agg_calls_
  const Aggregate* node = &agg;
  auto merged =
      std::make_shared<ColumnarAggBuilder>(agg.group_keys(), agg.agg_calls());
  auto built = std::make_shared<bool>(false);
  return ColumnBatchPuller([self, node, src, merged, built,
                            opts]() -> Result<ColumnBatch> {
    if (!*built) {
      // The scheduler lives only for the build phase; WaitIdle orders the
      // workers' writes before the merge reads the locals.
      const size_t threads = opts.num_threads;
      QueryCancelState cancel;
      // Each worker's builder with the first morsel it claimed.
      std::vector<std::pair<size_t, std::unique_ptr<ColumnarAggBuilder>>>
          locals;
      for (size_t t = 0; t < threads; ++t) {
        locals.emplace_back(SIZE_MAX, std::make_unique<ColumnarAggBuilder>(
                                          node->group_keys(),
                                          node->agg_calls()));
      }
      {
        MorselSource morsels(src->morsel_count, src->morsel_size);
        TaskScheduler scheduler(threads);
        for (size_t t = 0; t < threads; ++t) {
          auto* local = &locals[t];
          scheduler.Submit([&src, &morsels, &cancel, &opts, local]() {
            MorselReader reader(src, &morsels, &cancel, opts);
            while (auto batch = reader.Next()) {
              Status status = local->second->Feed(*batch);
              if (!status.ok()) cancel.Cancel(std::move(status));
            }
            local->first = reader.first_morsel();
          });
        }
        scheduler.WaitIdle();
      }
      CALCITE_RETURN_IF_ERROR(cancel.status());
      // Merging from the worker that began with the lowest morsel first
      // gives each group the key cells of the first row a serial scan would
      // see whenever that row lies in a worker's first morsel (Int(2) and
      // Double(2.0) group together, but the group keeps one of them).
      std::sort(locals.begin(), locals.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& local : locals) {
        CALCITE_RETURN_IF_ERROR(merged->MergeFrom(*local.second));
      }
      *built = true;
    }
    return merged->EmitBatch(opts.batch_size, *node->row_type());
  });
}

}  // namespace

std::optional<Result<ColumnBatchPuller>> TryExecuteParallelColumns(
    const RelNode& node, const ExecOptions& raw_opts) {
  ExecOptions opts = raw_opts.Normalized();
  if (opts.num_threads < 2) return std::nullopt;
  const auto* agg = dynamic_cast<const Aggregate*>(&node);
  if (agg != nullptr && agg->convention() == Convention::Enumerable()) {
    auto src = RecognizeMorselPipeline(*agg->input(0), opts);
    if (src == nullptr) return std::nullopt;
    return ExecuteAggregateParallel(*agg, std::move(src), opts);
  }
  auto src = RecognizeMorselPipeline(node, opts);
  if (src == nullptr) return std::nullopt;
  // Zero-copy slices of an in-memory table with nothing to evaluate would
  // only cross the exchange.
  if (src->columns != nullptr && src->stages.empty() && src->pushed.empty()) {
    return std::nullopt;
  }
  return ExecutePipelineParallel(std::move(src), opts);
}

}  // namespace calcite
