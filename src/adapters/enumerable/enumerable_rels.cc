#include "adapters/enumerable/enumerable_rels.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "adapters/enumerable/aggregates.h"
#include "adapters/enumerable/columnar_agg.h"
#include "exec/arena.h"
#include "exec/column_batch.h"
#include "exec/key_table.h"
#include "exec/parallel/parallel_exec.h"
#include "metadata/metadata.h"
#include "rex/rex_fuse.h"
#include "rex/rex_interpreter.h"
#include "rex/rex_util.h"

namespace calcite {

// The operators below execute as vectorized pull pipelines. With
// ExecOptions::enable_columnar on (the default) Filter, Project, Aggregate,
// Sort, the blocking set ops and the hash join run on columns whatever
// their input is: LiftToColumns hands them their input as ColumnBatches —
// parallel, natively columnar, or decoded from row batches. Sort, the set
// ops and the join's build side keep those batches; aggregates, set ops
// and joins resolve typed key cells in one KeyTable, and the join gathers
// its output columns from (probe, build) row pairs. Rows are boxed only
// where a row consumer (window, nested-loop join, QueryResult) reads them.
// With it off, every operator runs its plain per-row reference path
// (RexInterpreter::Eval, HashAggState, stable_sort with CompareRows,
// CombineSetOp, a Row-keyed hash join), the oracle the parity suites diff
// against. Each operator implements only ExecuteBatched (plus
// TryExecuteColumnar where it produces columns); RelNode::Execute drains
// that same pipeline. `batch_size = 1` reproduces row-at-a-time behaviour
// exactly (see the parity tests).

namespace {

RelTraitSet EnumerableTraits() {
  return RelTraitSet(Convention::Enumerable());
}

/// Three-way lexicographic row comparison under a collation.
int CompareRows(const Row& a, const Row& b, const RelCollation& collation) {
  for (const FieldCollation& fc : collation.fields()) {
    int c = a[static_cast<size_t>(fc.field)].Compare(
        b[static_cast<size_t>(fc.field)]);
    if (fc.direction == Direction::kDescending) c = -c;
    if (c != 0) return c;
  }
  return 0;
}

/// Full-row lexicographic order (for set operations).
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

size_t NormalizedBatchSize(const ExecOptions& opts) {
  return opts.batch_size == 0 ? 1 : opts.batch_size;
}

/// Bridges a columnar pipeline back to dense RowBatches (the conversion
/// boundary for row-path consumers: window, nested-loop join, QueryResult).
RowBatchPuller ColumnarToRowPuller(RelNodePtr self, ColumnBatchPuller pull) {
  return RowBatchPuller([self, pull]() -> Result<RowBatch> {
    auto batch = pull();
    if (!batch.ok()) return batch.status();
    RowBatch out;
    ColumnsToRows(batch.value(), &out);
    return out;
  });
}

/// The reverse bridge: decodes a row stream into ColumnBatches one batch at
/// a time (RowsToColumns), for columnar consumers over row producers.
ColumnBatchPuller RowToColumnarPuller(RowBatchPuller pull,
                                      RelDataTypePtr row_type) {
  return ColumnBatchPuller([pull, row_type]() -> Result<ColumnBatch> {
    auto batch = pull();
    if (!batch.ok()) return batch.status();
    if (batch.value().empty()) return ColumnBatch{};
    return RowsToColumns(batch.value(), *row_type);
  });
}

/// Hands `node`'s output to a columnar consumer (Filter, Project,
/// Aggregate, Sort, set ops, hash join). At num_threads > 1 a fragment the
/// morsel executor accepts still runs in parallel (a pipeline's batches
/// arrive unboxed, an aggregate's rows are decoded); otherwise a natively
/// columnar producer streams its batches; anything else has its row batches
/// decoded.
Result<ColumnBatchPuller> LiftToColumns(const RelNode& node,
                                        const ExecOptions& opts) {
  if (opts.num_threads > 1) {
    if (auto columns = TryExecuteParallelColumns(node, opts)) {
      return std::move(*columns);
    }
    if (auto parallel = TryExecuteParallel(node, opts)) {
      if (!parallel->ok()) return parallel->status();
      return RowToColumnarPuller(std::move(*parallel).value(),
                                 node.row_type());
    }
  }
  if (auto columnar = node.TryExecuteColumnar(opts)) {
    return std::move(*columnar);
  }
  auto rows = node.ExecuteBatched(opts);
  if (!rows.ok()) return rows.status();
  return RowToColumnarPuller(std::move(rows).value(), node.row_type());
}

}  // namespace

Row ConcatRows(const Row& left, const Row& right) {
  Row out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

// ------------------------------- TableScan --------------------------------

RelNodePtr EnumerableTableScan::Create(const TableScan& scan) {
  return RelNodePtr(new EnumerableTableScan(
      EnumerableTraits(), scan.row_type(), scan.table(),
      scan.qualified_name(), scan.table_convention()));
}

RelNodePtr EnumerableTableScan::Copy(RelTraitSet traits,
                                     std::vector<RelNodePtr> inputs) const {
  (void)inputs;
  return RelNodePtr(new EnumerableTableScan(std::move(traits), row_type(),
                                            table_, qualified_name_,
                                            table_convention_));
}

namespace {

/// Opens `scan`'s table with `pushed` evaluated inside it (Table::OpenScan),
/// before rows are materialized. The table's puller may capture a raw
/// `this`, so the pipeline pins the table for as long as it is pulled.
Result<RowBatchPuller> OpenScanRows(const EnumerableTableScan& scan,
                                    ScanPredicateList pushed,
                                    const ExecOptions& opts) {
  ScanSpec spec;
  spec.batch_size = NormalizedBatchSize(opts);
  spec.predicates = std::move(pushed);
  spec.access_path = opts.access_path;
  auto puller = scan.table()->OpenScan(spec);
  if (!puller.ok()) return puller;
  TablePtr table = scan.table();
  RowBatchPuller pull = std::move(puller).value();
  return RowBatchPuller(
      [table, pull]() -> Result<RowBatch> { return pull(); });
}

}  // namespace

FilterPushdown SplitPushdown(const Filter& filter) {
  FilterPushdown out;
  out.scan = dynamic_cast<const EnumerableTableScan*>(filter.input(0).get());
  if (out.scan != nullptr) {
    ExtractScanPredicates(
        filter.condition(),
        static_cast<int>(out.scan->row_type()->fields().size()), &out.pushed,
        &out.residual);
  }
  if (out.pushed.empty()) out.residual.assign(1, filter.condition());
  return out;
}

Result<RowBatchPuller> EnumerableTableScan::ExecuteBatched(
    const ExecOptions& opts) const {
  if (auto parallel = TryExecuteParallel(*this, opts)) {
    return std::move(*parallel);
  }
  return OpenScanRows(*this, ScanPredicateList{}, opts);
}

std::optional<Result<ColumnBatchPuller>>
EnumerableTableScan::TryExecuteColumnar(const ExecOptions& opts) const {
  if (!opts.enable_columnar) return std::nullopt;
  TypeFactory type_factory;
  TableColumnsPtr columns = table_->MaterializedColumns(type_factory);
  if (columns == nullptr) return std::nullopt;
  // The batches are zero-copy views into the table's cached decomposition;
  // pinning the node (which owns the table) keeps that storage alive for as
  // long as the pipeline is pulled.
  return Result<ColumnBatchPuller>(
      ScanTableColumns(std::move(columns), NormalizedBatchSize(opts),
                       ScanPredicateList{}, shared_from_this()));
}

// --------------------------------- Filter ---------------------------------

RelNodePtr EnumerableFilter::Create(RelNodePtr input, RexNodePtr condition) {
  RelDataTypePtr row_type = input->row_type();
  return RelNodePtr(new EnumerableFilter(EnumerableTraits(),
                                         std::move(row_type),
                                         std::move(input),
                                         std::move(condition)));
}

RelNodePtr EnumerableFilter::Copy(RelTraitSet traits,
                                  std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableFilter(std::move(traits), row_type(),
                                         std::move(inputs[0]), condition_));
}

Result<RowBatchPuller> EnumerableFilter::ExecuteBatched(
    const ExecOptions& opts) const {
  if (auto parallel = TryExecuteParallel(*this, opts)) {
    return std::move(*parallel);
  }
  if (auto columnar = TryExecuteColumnar(opts)) {
    // Survivors are boxed into rows only here, at the top of the columnar
    // pipeline (the selection was applied on column storage).
    if (!columnar->ok()) return columnar->status();
    return ColumnarToRowPuller(shared_from_this(),
                               std::move(*columnar).value());
  }
  // Reference path: per-row EvalPredicate over the residual conjuncts.
  FilterPushdown split = SplitPushdown(*this);
  auto in = !split.pushed.empty()
                ? OpenScanRows(*split.scan, std::move(split.pushed), opts)
                : input(0)->ExecuteBatched(opts);
  if (!in.ok()) return in.status();
  RelNodePtr self = shared_from_this();  // keeps the conjuncts' owner alive
  auto conjuncts =
      std::make_shared<std::vector<RexNodePtr>>(std::move(split.residual));
  RowBatchPuller pull = std::move(in).value();
  return RowBatchPuller([self, conjuncts, pull]() -> Result<RowBatch> {
    for (;;) {
      auto batch = pull();
      if (!batch.ok() || batch.value().empty()) return batch;
      RowBatch out;
      for (Row& row : batch.value()) {
        bool pass = true;
        for (size_t c = 0; pass && c < conjuncts->size(); ++c) {
          auto v = RexInterpreter::EvalPredicate((*conjuncts)[c], row);
          if (!v.ok()) return v.status();
          pass = v.value();
        }
        if (pass) out.push_back(std::move(row));
      }
      // Whole batch eliminated: keep pulling (mid-stream batches are never
      // empty).
      if (!out.empty()) return out;
    }
  });
}

std::optional<Result<ColumnBatchPuller>> EnumerableFilter::TryExecuteColumnar(
    const ExecOptions& opts) const {
  if (!opts.enable_columnar) return std::nullopt;
  RelNodePtr self = shared_from_this();

  // Simple conjuncts over a scan run inside the leaf: typed loops over the
  // table's raw column storage when it has a columnar decomposition,
  // otherwise the table's OpenScan (DiskTable pages) with the survivors
  // decoded into columns. The residual narrows the selection below.
  FilterPushdown split = SplitPushdown(*this);
  ColumnBatchPuller pull;
  TableColumnsPtr columns;
  if (split.scan != nullptr) {
    TypeFactory type_factory;
    columns = split.scan->table()->MaterializedColumns(type_factory);
  }
  if (columns != nullptr) {
    pull = ScanTableColumns(std::move(columns), NormalizedBatchSize(opts),
                            std::move(split.pushed), self);
  } else if (!split.pushed.empty()) {
    auto rows = OpenScanRows(*split.scan, std::move(split.pushed), opts);
    if (!rows.ok()) return Result<ColumnBatchPuller>(rows.status());
    pull = RowToColumnarPuller(std::move(rows).value(), row_type());
  } else {
    auto in = LiftToColumns(*input(0), opts);
    if (!in.ok()) return in;
    pull = std::move(in).value();
  }

  // Residual conjuncts narrow through FusedExpr (rex/rex_fuse.h). The
  // puller is single-consumer, matching FusedExpr's one-producer-thread
  // contract.
  auto conjuncts = std::make_shared<std::vector<FusedExpr>>();
  conjuncts->reserve(split.residual.size());
  for (RexNodePtr& pred : split.residual) {
    conjuncts->emplace_back(std::move(pred));
  }
  return Result<ColumnBatchPuller>(ColumnBatchPuller(
      [self, conjuncts, pull]() -> Result<ColumnBatch> {
        for (;;) {
          auto batch = pull();
          if (!batch.ok()) return batch;
          ColumnBatch cols = std::move(batch).value();
          if (cols.AtEnd()) return cols;
          if (!conjuncts->empty()) {
            if (!cols.has_sel) {
              cols.sel.resize(cols.num_rows);
              for (size_t i = 0; i < cols.num_rows; ++i) {
                cols.sel[i] = static_cast<uint32_t>(i);
              }
              cols.has_sel = true;
            }
            for (FusedExpr& pred : *conjuncts) {
              if (cols.sel.empty()) break;
              CALCITE_RETURN_IF_ERROR(pred.NarrowSelection(cols, &cols.sel));
            }
          }
          if (cols.ActiveCount() == 0) continue;
          return cols;
        }
      }));
}

// --------------------------------- Project --------------------------------

RelNodePtr EnumerableProject::Create(RelNodePtr input,
                                     std::vector<RexNodePtr> exprs,
                                     RelDataTypePtr row_type) {
  return RelNodePtr(new EnumerableProject(EnumerableTraits(),
                                          std::move(row_type),
                                          std::move(input), std::move(exprs)));
}

RelNodePtr EnumerableProject::Copy(RelTraitSet traits,
                                   std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableProject(std::move(traits), row_type(),
                                          std::move(inputs[0]), exprs_));
}

Result<RowBatchPuller> EnumerableProject::ExecuteBatched(
    const ExecOptions& opts) const {
  if (auto parallel = TryExecuteParallel(*this, opts)) {
    return std::move(*parallel);
  }
  if (auto columnar = TryExecuteColumnar(opts)) {
    // The projected columns are boxed into rows only here, at the top of
    // the columnar pipeline.
    if (!columnar->ok()) return columnar->status();
    return ColumnarToRowPuller(shared_from_this(),
                               std::move(*columnar).value());
  }
  // Reference path: per-row Eval of every expression.
  auto in = input(0)->ExecuteBatched(opts);
  if (!in.ok()) return in.status();
  RelNodePtr self = shared_from_this();  // pins exprs_ for the pipeline
  const EnumerableProject* node = this;
  RowBatchPuller pull = std::move(in).value();
  return RowBatchPuller([self, node, pull]() -> Result<RowBatch> {
    auto batch = pull();
    if (!batch.ok()) return batch;
    RowBatch out;
    out.reserve(batch.value().size());
    for (const Row& row : batch.value()) {
      Row projected;
      projected.reserve(node->exprs_.size());
      for (const RexNodePtr& expr : node->exprs_) {
        auto v = RexInterpreter::Eval(expr, row);
        if (!v.ok()) return v.status();
        projected.push_back(std::move(v).value());
      }
      out.push_back(std::move(projected));
    }
    return out;
  });
}

std::optional<Result<ColumnBatchPuller>> EnumerableProject::TryExecuteColumnar(
    const ExecOptions& opts) const {
  if (!opts.enable_columnar) return std::nullopt;
  auto in = LiftToColumns(*input(0), opts);
  if (!in.ok()) return in;
  RelNodePtr self = shared_from_this();  // pins exprs_ for the pipeline
  ColumnBatchPuller pull = std::move(in).value();
  // Projection exprs evaluate through FusedExpr (single-consumer puller,
  // so one FusedExpr per expression is safe).
  auto fused = std::make_shared<std::vector<FusedExpr>>();
  fused->reserve(exprs_.size());
  for (const RexNodePtr& expr : exprs_) fused->emplace_back(expr);
  // Output columns are bump-allocated; each batch's arena is recycled once
  // the consumer drops the batch.
  auto pool = std::make_shared<ArenaPool>();
  return Result<ColumnBatchPuller>(ColumnBatchPuller(
      [self, fused, pull, pool]() -> Result<ColumnBatch> {
        auto batch = pull();
        if (!batch.ok()) return batch;
        ColumnBatch in_cols = std::move(batch).value();
        if (in_cols.AtEnd()) return ColumnBatch{};
        // The output is dense: one entry per active input row, selection
        // consumed by the projection kernels (gather on write).
        ColumnBatch out;
        out.arena = pool->Acquire();
        out.num_rows = in_cols.ActiveCount();
        out.ShareStorage(in_cols);
        for (FusedExpr& expr : *fused) {
          CALCITE_RETURN_IF_ERROR(expr.AppendEvalColumn(in_cols, &out));
        }
        return out;
      }));
}

// ------------------------- kept columnar input ---------------------------

namespace {

/// Copies the active rows of `in` densely into `arena` (string bytes
/// included) and boxed columns into a fresh pool, so the result holds no
/// reference to `in`'s storage.
ColumnBatch CompactBatch(const ColumnBatch& in, const ArenaPtr& arena) {
  const size_t n = in.ActiveCount();
  ColumnBatch out;
  out.num_rows = n;
  out.arena = arena;
  out.cols.resize(in.cols.size());
  for (size_t c = 0; c < in.cols.size(); ++c) {
    const ColumnVector& src = in.cols[c];
    ColumnVector& dst = out.cols[c];
    dst.type = src.type;
    if (src.type == PhysType::kValue) {
      auto vals = std::make_shared<std::vector<Value>>();
      vals->reserve(n);
      for (size_t k = 0; k < n; ++k) {
        vals->push_back(src.boxed[in.ActiveIndex(k)]);
      }
      dst.boxed = vals->data();
      out.boxed_pool.push_back(std::move(vals));
      continue;
    }
    if (src.nulls != nullptr) {
      uint8_t* nulls = arena->AllocateArray<uint8_t>(n);
      for (size_t k = 0; k < n; ++k) nulls[k] = src.nulls[in.ActiveIndex(k)];
      dst.nulls = nulls;
    }
    switch (src.type) {
      case PhysType::kInt64: {
        int64_t* d = arena->AllocateArray<int64_t>(n);
        for (size_t k = 0; k < n; ++k) d[k] = src.i64[in.ActiveIndex(k)];
        dst.i64 = d;
        break;
      }
      case PhysType::kDouble: {
        double* d = arena->AllocateArray<double>(n);
        for (size_t k = 0; k < n; ++k) d[k] = src.f64[in.ActiveIndex(k)];
        dst.f64 = d;
        break;
      }
      case PhysType::kBool: {
        uint8_t* d = arena->AllocateArray<uint8_t>(n);
        for (size_t k = 0; k < n; ++k) d[k] = src.b8[in.ActiveIndex(k)];
        dst.b8 = d;
        break;
      }
      case PhysType::kString: {
        StringRef* d = arena->AllocateArray<StringRef>(n);
        size_t total = 0;
        for (size_t k = 0; k < n; ++k) total += src.str[in.ActiveIndex(k)].size;
        char* bytes = arena->AllocateArray<char>(total);
        for (size_t k = 0; k < n; ++k) {
          const StringRef s = src.str[in.ActiveIndex(k)];
          if (s.size > 0) std::memcpy(bytes, s.data, s.size);
          d[k] = StringRef{bytes, s.size};
          bytes += s.size;
        }
        dst.str = d;
        break;
      }
      case PhysType::kValue:
        break;
    }
  }
  return out;
}

/// The input of a blocking columnar operator, kept as the batches it
/// arrived in (zero-copy views keep their pins) and addressed by a dense
/// position over their active rows. Rows are boxed only when emitted.
struct KeptBatches {
  std::vector<ColumnBatch> batches;
  std::vector<size_t> starts;  // position of each batch's first active row
  size_t size = 0;
  // Storage of compacted batches. Small chunks: a top-N over a selective
  // filter keeps a few rows, and a default-sized chunk per operator would
  // cost more than the rows it holds.
  ArenaPtr arena = std::make_shared<Arena>(size_t{1} << 14);

  /// Keeps `batch`. One whose columns were written into its producer's
  /// pooled arena is compacted into this one instead: holding it would pin
  /// a whole arena chunk per batch (and keep the pool allocating fresh ones)
  /// however few rows it carries. Views of table or decoded storage own no
  /// arena data and are kept as they are.
  void Add(ColumnBatch batch) {
    starts.push_back(size);
    size += batch.ActiveCount();
    if (batch.arena != nullptr && batch.arena->bytes_used() > 0) {
      batches.push_back(CompactBatch(batch, arena));
    } else {
      batches.push_back(std::move(batch));
    }
  }

  /// Boxes the rows at positions order[*pos, end), at most `batch_size` of
  /// them, advancing *pos.
  RowBatch Emit(const std::vector<uint32_t>& order, size_t* pos, size_t end,
                size_t batch_size) const {
    RowBatch out;
    const size_t n = std::min(batch_size, end - *pos);
    out.reserve(n);
    for (size_t k = *pos; k < *pos + n; ++k) {
      const size_t p = order[k];
      const size_t b = static_cast<size_t>(
          std::upper_bound(starts.begin(), starts.end(), p) - starts.begin() -
          1);
      const ColumnBatch& batch = batches[b];
      out.push_back(batch.GatherRow(batch.ActiveIndex(p - starts[b])));
    }
    *pos += n;
    return out;
  }
};

}  // namespace

// -------------------------------- HashJoin --------------------------------

RelNodePtr EnumerableHashJoin::Create(RelNodePtr left, RelNodePtr right,
                                      RexNodePtr condition, JoinType join_type,
                                      RelDataTypePtr row_type) {
  return RelNodePtr(new EnumerableHashJoin(
      EnumerableTraits(), std::move(row_type), std::move(left),
      std::move(right), std::move(condition), join_type));
}

RelNodePtr EnumerableHashJoin::Copy(RelTraitSet traits,
                                    std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableHashJoin(std::move(traits), row_type(),
                                           std::move(inputs[0]),
                                           std::move(inputs[1]), condition_,
                                           join_type_));
}

namespace {

/// The join key of `row` under one side of the equi-key list, or nullopt
/// if any key column is NULL (NULL keys never match).
std::optional<Row> JoinSideKey(const Row& row,
                               const std::vector<std::pair<int, int>>& keys,
                               bool left_side) {
  Row key;
  key.reserve(keys.size());
  for (const auto& [l, r] : keys) {
    const Value& v = row[static_cast<size_t>(left_side ? l : r)];
    if (v.IsNull()) return std::nullopt;
    key.push_back(v);
  }
  return key;
}

Row PadNullRight(const Row& left, size_t right_width) {
  Row out = left;
  out.resize(left.size() + right_width);
  return out;
}

Row PadNullLeft(size_t left_width, const Row& right) {
  Row out(left_width);
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

/// True for the join types that emit the concatenated row per match
/// (SEMI/ANTI decide emission per left row instead).
bool JoinEmitsCombinedRows(JoinType join_type) {
  return join_type != JoinType::kSemi && join_type != JoinType::kAnti;
}

/// True for the join types whose probe rows are decided once all their
/// matches ran: LEFT/FULL pad an unmatched row, SEMI keeps a matched one,
/// ANTI an unmatched one.
bool JoinDecidesPerLeftRow(JoinType join_type) {
  return join_type != JoinType::kInner && join_type != JoinType::kRight;
}

/// True for the join types that emit unmatched build rows at the end.
bool JoinEmitsUnmatchedRight(JoinType join_type) {
  return join_type == JoinType::kRight || join_type == JoinType::kFull;
}

/// Emission decided once per probed left row, after its matches ran.
void JoinEmitPerLeftRow(JoinType join_type, bool matched, Row&& lrow,
                        size_t right_width, RowBatch* out) {
  switch (join_type) {
    case JoinType::kLeft:
    case JoinType::kFull:
      if (!matched) out->push_back(PadNullRight(lrow, right_width));
      return;
    case JoinType::kSemi:
      if (matched) out->push_back(std::move(lrow));
      return;
    case JoinType::kAnti:
      if (!matched) out->push_back(std::move(lrow));
      return;
    default:
      return;
  }
}

/// True when every residual (non-equi) join conjunct passes on `combined`.
Result<bool> ResidualPasses(const std::vector<RexNodePtr>& remaining,
                            const Row& combined) {
  for (const RexNodePtr& pred : remaining) {
    auto pass = RexInterpreter::EvalPredicate(pred, combined);
    if (!pass.ok() || !pass.value()) return pass;
  }
  return true;
}

// The columnar hash join. The build (right) side keeps its batches, and
// its key columns resolve to KeyTable ids; the rows of each id are kept in
// CSR order (insertion order within a key). A probe batch's key columns are
// hashed and looked up in one Find pass, and its matches expand into a list
// of (probe row, build row) pairs — at most batch_size per output batch —
// from which only the output columns are gathered. The output order is the
// row reference's: probe order, build insertion order within a key, then
// the unmatched build rows.

/// Item marker: the probe row's chain of candidate pairs is complete, so a
/// per-row decision (LEFT/FULL pad, SEMI keep, ANTI keep) can be taken.
constexpr uint32_t kRowEnd = kNullRow - 1;

struct ColumnarJoinState {
  // Plan constants.
  JoinType join_type = JoinType::kInner;
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  std::vector<RexNodePtr> remaining;
  std::vector<FusedExpr> residual;  // `remaining`, fused
  size_t batch_size = 1;
  size_t left_width = 0;
  std::vector<PhysType> left_types;  // of NULL left cells in the tail

  // Build side. Build rows are numbered in arrival order.
  ColumnBatchPuller right_pull;  // dropped once drained
  bool built = false;
  KeyTable keys{1, /*null_keys_match=*/false};
  std::shared_ptr<KeptBatches> build;  // pinned by every output batch
  std::vector<uint32_t> batch_of;  // build row -> kept batch
  std::vector<uint32_t> row_of;    // build row -> physical row in it
  std::vector<std::vector<ColumnVector>> build_cols;  // [column][batch]
  std::vector<PhysType> right_types;  // of the columns of an empty build
  std::vector<uint32_t> first;   // rows of key id: chain[first[id], first[id+1])
  std::vector<uint32_t> chain;
  std::vector<uint8_t> matched;  // RIGHT/FULL: build row had a passing pair

  // Probe side: the current batch and the cursor into its pairs.
  ColumnBatchPuller left_pull;
  bool probe_done = false;
  ColumnBatch probe;
  const std::vector<uint32_t>* ids = nullptr;  // key id per active row
  size_t k = 0;  // active row whose chain is being expanded
  size_t j = 0;  // next candidate of that chain
  bool row_matched = false;  // row k already had a passing pair
  size_t tail_pos = 0;       // next build row of the unmatched tail

  // Per-chunk scratch.
  std::vector<uint32_t> item_probe, item_build;  // candidates and row ends
  std::vector<uint8_t> pass;
  std::vector<uint32_t> out_probe, out_build;
  std::vector<uint32_t> scatter;  // build row per physical probe row
  std::vector<uint32_t> gather_batch, gather_row;  // located build rows
  ArenaPool pool;
};

/// Drains the build side: keeps its batches, resolves their keys (NULL
/// keys get none and never match) and lays out the CSR chains.
Status BuildJoinSide(ColumnarJoinState* st) {
  st->build = std::make_shared<KeptBatches>();
  KeptBatches& kept = *st->build;
  std::vector<uint32_t> ids;
  for (;;) {
    CALCITE_ASSIGN_OR_RETURN(ColumnBatch batch, st->right_pull());
    if (batch.AtEnd()) break;
    const std::vector<uint32_t>& batch_ids =
        st->keys.Resolve(batch, st->right_keys);
    ids.insert(ids.end(), batch_ids.begin(), batch_ids.end());
    kept.Add(std::move(batch));
    const ColumnBatch& added = kept.batches.back();
    const uint32_t b = static_cast<uint32_t>(kept.batches.size() - 1);
    for (size_t k = 0; k < added.ActiveCount(); ++k) {
      st->batch_of.push_back(b);
      st->row_of.push_back(static_cast<uint32_t>(added.ActiveIndex(k)));
    }
  }
  st->right_pull = nullptr;  // releases a parallel input's workers
  if (ids.size() >= kRowEnd) {
    return Status::RuntimeError("hash join build side exceeds 2^32 rows");
  }
  st->build_cols.resize(st->right_types.size());
  for (size_t c = 0; c < st->build_cols.size(); ++c) {
    for (const ColumnBatch& batch : kept.batches) {
      st->build_cols[c].push_back(batch.cols[c]);
    }
    if (kept.batches.empty()) {
      st->build_cols[c].emplace_back();
      st->build_cols[c][0].type = st->right_types[c];
    }
  }
  st->first.assign(st->keys.size() + 1, 0);
  for (uint32_t id : ids) {
    if (id != KeyTable::kNoId) ++st->first[id + 1];
  }
  for (size_t id = 0; id < st->keys.size(); ++id) {
    st->first[id + 1] += st->first[id];
  }
  st->chain.resize(st->first.back());
  std::vector<uint32_t> fill(st->first.begin(), st->first.end() - 1);
  for (size_t p = 0; p < ids.size(); ++p) {
    if (ids[p] != KeyTable::kNoId) {
      st->chain[fill[ids[p]]++] = static_cast<uint32_t>(p);
    }
  }
  if (JoinEmitsUnmatchedRight(st->join_type)) {
    st->matched.assign(ids.size(), 0);
  }
  st->built = true;
  return Status::OK();
}

/// Appends the build columns at build rows build_rows[0..n) (NULL where
/// kNullRow) to `out`, which then pins the build side.
void AppendBuildColumns(ColumnarJoinState* st, const uint32_t* build_rows,
                        size_t n, ColumnBatch* out) {
  const bool one_batch = st->build->batches.size() <= 1;
  st->gather_batch.resize(n);
  st->gather_row.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const uint32_t p = build_rows[k];
    st->gather_batch[k] = p == kNullRow ? 0 : st->batch_of[p];
    st->gather_row[k] = p == kNullRow ? kNullRow : st->row_of[p];
  }
  for (const std::vector<ColumnVector>& srcs : st->build_cols) {
    AppendGatheredColumn(srcs.data(), srcs.size(),
                         one_batch ? nullptr : st->gather_batch.data(),
                         st->gather_row.data(), n, out);
  }
  out->pins.push_back(st->build);
}

/// A dense batch of `n` joined rows: left cells from `probe` at probe_rows
/// (or `left_types` NULLs where kNullRow), right cells from the build side
/// at build_rows (NULL where kNullRow).
ColumnBatch GatherJoined(ColumnarJoinState* st, const ColumnBatch* probe,
                         const uint32_t* probe_rows,
                         const uint32_t* build_rows, size_t n) {
  ColumnBatch out;
  out.num_rows = n;
  out.arena = st->pool.Acquire();
  out.cols.reserve(st->left_width + st->build_cols.size());
  for (size_t c = 0; c < st->left_width; ++c) {
    ColumnVector nulls;
    nulls.type = st->left_types[c];
    AppendGatheredColumn(probe != nullptr ? &probe->cols[c] : &nulls, 1,
                         nullptr, probe_rows, n, &out);
  }
  AppendBuildColumns(st, build_rows, n, &out);
  if (probe != nullptr) out.ShareStorage(*probe);
  return out;
}

/// Boxes build row `p`.
Row BuildRow(const ColumnarJoinState& st, uint32_t p) {
  return st.build->batches[st.batch_of[p]].GatherRow(st.row_of[p]);
}

/// Expands the current probe batch from the cursor into at most batch_size
/// items — candidate pairs and, for the join types that decide per probe
/// row, one row-end marker per row — each of which yields at most one
/// output row.
void NextItems(ColumnarJoinState* st) {
  st->item_probe.clear();
  st->item_build.clear();
  const size_t active = st->probe.ActiveCount();
  const bool per_row = JoinDecidesPerLeftRow(st->join_type);
  // Without a residual the first candidate decides a SEMI/ANTI row.
  const bool first_only =
      st->residual.empty() &&
      (st->join_type == JoinType::kSemi || st->join_type == JoinType::kAnti);
  // A SEMI row whose pair passed in an earlier chunk needs no more pairs.
  bool skip_rest = st->join_type == JoinType::kSemi && st->row_matched;
  while (st->k < active && st->item_probe.size() < st->batch_size) {
    const uint32_t row = static_cast<uint32_t>(st->probe.ActiveIndex(st->k));
    const uint32_t id = (*st->ids)[st->k];
    size_t len = 0;
    if (id != KeyTable::kNoId && !skip_rest) {
      len = st->first[id + 1] - st->first[id];
      if (first_only) len = std::min<size_t>(len, 1);
    }
    if (st->j < len) {
      st->item_probe.push_back(row);
      st->item_build.push_back(st->chain[st->first[id] + st->j++]);
      continue;
    }
    if (per_row) {
      st->item_probe.push_back(row);
      st->item_build.push_back(kRowEnd);
    }
    ++st->k;
    st->j = 0;
    skip_rest = false;
  }
}

/// Evaluates the residual conjuncts over the current items' candidate pairs
/// into st->pass. A SEMI join's row stops at its first passing pair in the
/// reference; the batch evaluation may also reach later pairs, so when it
/// fails the pairs are re-run in order, per pair and stopping each row at
/// its first pass, which raises exactly the errors the reference raises.
Status EvalResidual(ColumnarJoinState* st) {
  const size_t n = st->item_probe.size();
  st->pass.assign(n, 1);
  if (st->residual.empty()) return Status::OK();
  std::vector<uint32_t> pairs;  // item index of each candidate pair
  for (size_t t = 0; t < n; ++t) {
    if (st->item_build[t] != kRowEnd) pairs.push_back(static_cast<uint32_t>(t));
  }
  if (pairs.empty()) return Status::OK();
  std::vector<uint32_t> probe_rows(pairs.size());
  std::vector<uint32_t> build_rows(pairs.size());
  for (size_t s = 0; s < pairs.size(); ++s) {
    probe_rows[s] = st->item_probe[pairs[s]];
    build_rows[s] = st->item_build[pairs[s]];
  }
  ColumnBatch cand = GatherJoined(st, &st->probe, probe_rows.data(),
                                 build_rows.data(), pairs.size());
  cand.has_sel = true;
  cand.sel.resize(pairs.size());
  for (size_t s = 0; s < pairs.size(); ++s) {
    cand.sel[s] = static_cast<uint32_t>(s);
  }
  Status status = Status::OK();
  for (FusedExpr& pred : st->residual) {
    if (cand.sel.empty()) break;
    status = pred.NarrowSelection(cand, &cand.sel);
    if (!status.ok()) break;
  }
  if (status.ok()) {
    for (uint32_t t : pairs) st->pass[t] = 0;
    for (uint32_t s : cand.sel) st->pass[pairs[s]] = 1;
    return Status::OK();
  }
  if (st->join_type != JoinType::kSemi) return status;
  bool matched = st->row_matched;
  for (size_t t = 0; t < n; ++t) {
    if (st->item_build[t] == kRowEnd) {
      matched = false;
      continue;
    }
    st->pass[t] = 0;
    if (matched) continue;
    const Row combined = ConcatRows(st->probe.GatherRow(st->item_probe[t]),
                                    BuildRow(*st, st->item_build[t]));
    CALCITE_ASSIGN_OR_RETURN(bool pass,
                             ResidualPasses(st->remaining, combined));
    if (pass) {
      st->pass[t] = 1;
      matched = true;
    }
  }
  return Status::OK();
}

/// The output of the current items: applies the join type to the items'
/// pairs (after the residual) and gathers the emitted rows. An empty batch
/// means these items emitted nothing.
Result<ColumnBatch> EmitItems(ColumnarJoinState* st) {
  CALCITE_RETURN_IF_ERROR(EvalResidual(st));
  const JoinType jt = st->join_type;
  st->out_probe.clear();
  st->out_build.clear();
  bool matched = st->row_matched;
  for (size_t t = 0; t < st->item_probe.size(); ++t) {
    const uint32_t row = st->item_probe[t];
    const uint32_t p = st->item_build[t];
    if (p == kRowEnd) {
      if (jt == JoinType::kSemi ? matched : !matched) {
        st->out_probe.push_back(row);
        st->out_build.push_back(kNullRow);
      }
      matched = false;
      continue;
    }
    if (st->pass[t] == 0) continue;
    matched = true;
    if (!st->matched.empty()) st->matched[p] = 1;
    if (JoinEmitsCombinedRows(jt)) {
      st->out_probe.push_back(row);
      st->out_build.push_back(p);
    }
  }
  st->row_matched = matched;
  const size_t n = st->out_probe.size();
  if (n == 0) return ColumnBatch{};

  const ColumnBatch& probe = st->probe;
  const bool ascending =
      std::adjacent_find(st->out_probe.begin(), st->out_probe.end(),
                         std::greater_equal<uint32_t>()) ==
      st->out_probe.end();
  if (!JoinEmitsCombinedRows(jt)) {
    // SEMI/ANTI: the probe batch itself, narrowed by a selection.
    ColumnBatch out = probe;
    out.sel = st->out_probe;
    out.has_sel = true;
    return out;
  }
  const size_t right_width = st->build_cols.size();
  if (ascending &&
      right_width * probe.num_rows <= (st->left_width + right_width) * n) {
    // Each probe row emits at most once: its columns are aliased and the
    // build columns are gathered to the probe's physical row positions.
    st->scatter.assign(probe.num_rows, kNullRow);
    for (size_t t = 0; t < n; ++t) {
      st->scatter[st->out_probe[t]] = st->out_build[t];
    }
    ColumnBatch out;
    out.num_rows = probe.num_rows;
    out.arena = st->pool.Acquire();
    out.cols = probe.cols;
    AppendBuildColumns(st, st->scatter.data(), probe.num_rows, &out);
    out.ShareStorage(probe);
    if (n < probe.num_rows) {
      out.sel = st->out_probe;
      out.has_sel = true;
    }
    return out;
  }
  return GatherJoined(st, &probe, st->out_probe.data(), st->out_build.data(),
                      n);
}

/// The next batch of unmatched build rows, NULL-extended on the left
/// (RIGHT/FULL); empty once they are exhausted.
ColumnBatch EmitUnmatchedTail(ColumnarJoinState* st) {
  st->out_build.clear();
  const size_t rows = st->batch_of.size();
  while (st->tail_pos < rows && st->out_build.size() < st->batch_size) {
    const size_t p = st->tail_pos++;
    if (st->matched[p] == 0) st->out_build.push_back(static_cast<uint32_t>(p));
  }
  const size_t n = st->out_build.size();
  if (n == 0) return ColumnBatch{};
  st->out_probe.assign(n, kNullRow);
  return GatherJoined(st, nullptr, st->out_probe.data(), st->out_build.data(),
                      n);
}

/// One pull of the columnar join.
Result<ColumnBatch> PullJoined(ColumnarJoinState* st) {
  if (!st->built) CALCITE_RETURN_IF_ERROR(BuildJoinSide(st));
  for (;;) {
    if (st->ids != nullptr && st->k < st->probe.ActiveCount()) {
      NextItems(st);
      CALCITE_ASSIGN_OR_RETURN(ColumnBatch out, EmitItems(st));
      if (!out.AtEnd()) return out;
      continue;
    }
    if (st->probe_done) break;
    CALCITE_ASSIGN_OR_RETURN(ColumnBatch batch, st->left_pull());
    if (batch.AtEnd()) {
      st->probe_done = true;
      st->ids = nullptr;
      st->probe = ColumnBatch{};
      continue;
    }
    st->probe = std::move(batch);
    for (size_t c = 0; c < st->left_width; ++c) {
      st->left_types[c] = st->probe.cols[c].type;
    }
    st->ids = &st->keys.Find(st->probe, st->left_keys);
    st->k = 0;
    st->j = 0;
    st->row_matched = false;
  }
  if (JoinEmitsUnmatchedRight(st->join_type)) return EmitUnmatchedTail(st);
  return ColumnBatch{};
}

/// State of the row reference join (hash or nested-loop), used with
/// enable_columnar off: the build side is boxed into rows on first pull;
/// probe batches then flow through one at a time. The hash table stays
/// empty for nested loops.
struct JoinExecState {
  bool built = false;
  std::vector<Row> right_data;
  std::unordered_map<Row, std::vector<size_t>, RowHash> table;
  std::vector<bool> right_matched;
  bool left_done = false;
  size_t right_emit_pos = 0;
  /// Join output already produced but not yet handed out: a skewed key can
  /// make one probe batch yield far more than batch_size rows, and the
  /// ExecuteBatched contract caps every returned batch. Drained through
  /// pending_pos (a cursor, so flushing stays linear); cleared — and the
  /// cursor reset — once fully handed out.
  RowBatch pending;
  size_t pending_pos = 0;
};

/// Hands out the next <= batch_size rows of state->pending.
RowBatch FlushPending(JoinExecState* state, size_t batch_size) {
  size_t n = std::min(batch_size, state->pending.size() - state->pending_pos);
  auto first = state->pending.begin() +
               static_cast<ptrdiff_t>(state->pending_pos);
  RowBatch out(std::make_move_iterator(first),
               std::make_move_iterator(first + static_cast<ptrdiff_t>(n)));
  state->pending_pos += n;
  if (state->pending_pos >= state->pending.size()) {
    state->pending.clear();
    state->pending_pos = 0;
  }
  return out;
}

/// Drains the build side into state->right_data and sizes the matched mask.
Status DrainRightSide(const RowBatchPuller& right_pull, JoinExecState* state) {
  for (;;) {
    auto batch = right_pull();
    if (!batch.ok()) return batch.status();
    if (batch.value().empty()) break;
    for (Row& row : batch.value()) {
      state->right_data.push_back(std::move(row));
    }
  }
  state->right_matched.assign(state->right_data.size(), false);
  return Status::OK();
}

/// Build phase of the reference hash join: drains the right side and
/// hashes it on its key columns (rows with a NULL key never match and stay
/// unhashed).
Status BuildHashSide(const RowBatchPuller& right_pull,
                     const std::vector<std::pair<int, int>>& keys,
                     JoinExecState* state) {
  CALCITE_RETURN_IF_ERROR(DrainRightSide(right_pull, state));
  for (size_t i = 0; i < state->right_data.size(); ++i) {
    auto key = JoinSideKey(state->right_data[i], keys, /*left_side=*/false);
    if (key.has_value()) state->table[std::move(*key)].push_back(i);
  }
  state->built = true;
  return Status::OK();
}

/// The next batch of NULL-padded unmatched build rows (RIGHT/FULL OUTER),
/// empty when exhausted or not applicable to the join type.
RowBatch EmitUnmatchedRight(JoinType join_type, JoinExecState* state,
                            size_t left_width, size_t batch_size) {
  RowBatch out;
  if (!JoinEmitsUnmatchedRight(join_type)) return out;
  while (state->right_emit_pos < state->right_data.size() &&
         out.size() < batch_size) {
    size_t i = state->right_emit_pos++;
    if (!state->right_matched[i]) {
      out.push_back(PadNullLeft(left_width, state->right_data[i]));
    }
  }
  return out;
}

}  // namespace

std::optional<Result<ColumnBatchPuller>> EnumerableHashJoin::TryExecuteColumnar(
    const ExecOptions& opts) const {
  if (!opts.enable_columnar) return std::nullopt;
  auto st = std::make_shared<ColumnarJoinState>();
  std::vector<std::pair<int, int>> keys;
  if (!AnalyzeEquiKeys(&keys, &st->remaining)) {
    return Result<ColumnBatchPuller>(Status::PlanError(
        "EnumerableHashJoin requires at least one equi-join key"));
  }
  for (const auto& [l, r] : keys) {
    st->left_keys.push_back(l);
    st->right_keys.push_back(r);
  }
  st->keys = KeyTable(keys.size(), /*null_keys_match=*/false);
  for (const RexNodePtr& pred : st->remaining) {
    st->residual.emplace_back(pred);
  }
  st->join_type = join_type_;
  st->batch_size = NormalizedBatchSize(opts);
  const RelDataType& left_type = *input(0)->row_type();
  st->left_width = left_type.fields().size();
  for (const RelDataTypeField& field : left_type.fields()) {
    st->left_types.push_back(PhysTypeForRel(*field.type));
  }
  for (const RelDataTypeField& field : input(1)->row_type()->fields()) {
    st->right_types.push_back(PhysTypeForRel(*field.type));
  }
  auto right = LiftToColumns(*input(1), opts);
  if (!right.ok()) return Result<ColumnBatchPuller>(right.status());
  st->right_pull = std::move(right).value();
  auto left = LiftToColumns(*input(0), opts);
  if (!left.ok()) return Result<ColumnBatchPuller>(left.status());
  st->left_pull = std::move(left).value();
  RelNodePtr self = shared_from_this();  // pins the row types and residual
  return Result<ColumnBatchPuller>(
      ColumnBatchPuller([self, st]() -> Result<ColumnBatch> {
        return PullJoined(st.get());
      }));
}

Result<RowBatchPuller> EnumerableHashJoin::ExecuteBatched(
    const ExecOptions& opts) const {
  if (auto columnar = TryExecuteColumnar(opts)) {
    if (!columnar->ok()) return columnar->status();
    return ColumnarToRowPuller(shared_from_this(),
                               std::move(*columnar).value());
  }
  // Reference path: boxed build rows in a Row-keyed hash table, probed by
  // boxed left rows; residuals run per combined row.
  auto keys = std::make_shared<std::vector<std::pair<int, int>>>();
  auto remaining = std::make_shared<std::vector<RexNodePtr>>();
  if (!AnalyzeEquiKeys(keys.get(), remaining.get())) {
    return Status::PlanError(
        "EnumerableHashJoin requires at least one equi-join key");
  }
  auto right = input(1)->ExecuteBatched(opts);
  if (!right.ok()) return right.status();
  auto left = input(0)->ExecuteBatched(opts);
  if (!left.ok()) return left.status();

  RelNodePtr self = shared_from_this();
  const JoinType join_type = join_type_;
  const size_t left_width = input(0)->row_type()->fields().size();
  const size_t right_width = input(1)->row_type()->fields().size();
  const size_t batch_size = NormalizedBatchSize(opts);
  auto state = std::make_shared<JoinExecState>();
  RowBatchPuller right_pull = std::move(right).value();
  RowBatchPuller left_pull = std::move(left).value();

  return RowBatchPuller([self, keys, remaining, state, left_pull, right_pull,
                         join_type, left_width, right_width,
                         batch_size]() -> Result<RowBatch> {
    if (!state->built) {
      CALCITE_RETURN_IF_ERROR(BuildHashSide(right_pull, *keys, state.get()));
    }
    if (!state->pending.empty()) {
      return FlushPending(state.get(), batch_size);
    }

    // Probe phase: a whole left batch per dispatch.
    while (!state->left_done) {
      auto batch = left_pull();
      if (!batch.ok()) return batch.status();
      RowBatch left_rows = std::move(batch).value();
      if (left_rows.empty()) {
        state->left_done = true;
        break;
      }
      RowBatch& out = state->pending;
      for (Row& lrow : left_rows) {
        auto key = JoinSideKey(lrow, *keys, /*left_side=*/true);
        bool matched = false;
        if (key.has_value()) {
          auto it = state->table.find(*key);
          if (it != state->table.end()) {
            for (size_t ri : it->second) {
              Row combined = ConcatRows(lrow, state->right_data[ri]);
              auto pass = ResidualPasses(*remaining, combined);
              if (!pass.ok()) return pass.status();
              if (!pass.value()) continue;
              matched = true;
              state->right_matched[ri] = true;
              if (JoinEmitsCombinedRows(join_type)) {
                out.push_back(std::move(combined));
              }
              if (join_type == JoinType::kSemi) break;
            }
          }
        }
        JoinEmitPerLeftRow(join_type, matched, std::move(lrow), right_width, &out);
      }
      if (!out.empty()) return FlushPending(state.get(), batch_size);
    }

    RowBatch out =
        EmitUnmatchedRight(join_type, state.get(), left_width, batch_size);
    if (!out.empty()) return out;
    return RowBatch{};
  });
}

// ------------------------------ NestedLoopJoin ----------------------------

RelNodePtr EnumerableNestedLoopJoin::Create(RelNodePtr left, RelNodePtr right,
                                            RexNodePtr condition,
                                            JoinType join_type,
                                            RelDataTypePtr row_type) {
  return RelNodePtr(new EnumerableNestedLoopJoin(
      EnumerableTraits(), std::move(row_type), std::move(left),
      std::move(right), std::move(condition), join_type));
}

RelNodePtr EnumerableNestedLoopJoin::Copy(RelTraitSet traits,
                                          std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableNestedLoopJoin(
      std::move(traits), row_type(), std::move(inputs[0]),
      std::move(inputs[1]), condition_, join_type_));
}

std::optional<RelOptCost> EnumerableNestedLoopJoin::SelfCost(
    MetadataQuery* mq) const {
  double left = mq->RowCount(input(0));
  double right = mq->RowCount(input(1));
  return RelOptCost(left * right, left * right, 0) *
         convention()->cost_factor();
}

Result<RowBatchPuller> EnumerableNestedLoopJoin::ExecuteBatched(
    const ExecOptions& opts) const {
  auto left = input(0)->ExecuteBatched(opts);
  if (!left.ok()) return left;
  auto right = input(1)->ExecuteBatched(opts);
  if (!right.ok()) return right;

  RelNodePtr self = shared_from_this();
  RexNodePtr condition = condition_;
  const JoinType join_type = join_type_;
  const size_t left_width = input(0)->row_type()->fields().size();
  const size_t right_width = input(1)->row_type()->fields().size();
  const size_t batch_size = NormalizedBatchSize(opts);
  auto state = std::make_shared<JoinExecState>();
  RowBatchPuller left_pull = std::move(left).value();
  RowBatchPuller right_pull = std::move(right).value();

  return RowBatchPuller([self, condition, state, left_pull, right_pull,
                         join_type, left_width, right_width,
                         batch_size]() -> Result<RowBatch> {
    if (!state->built) {
      CALCITE_RETURN_IF_ERROR(DrainRightSide(right_pull, state.get()));
      state->built = true;
    }

    if (!state->pending.empty()) {
      return FlushPending(state.get(), batch_size);
    }

    while (!state->left_done) {
      auto batch = left_pull();
      if (!batch.ok()) return batch.status();
      RowBatch left_rows = std::move(batch).value();
      if (left_rows.empty()) {
        state->left_done = true;
        break;
      }
      RowBatch& out = state->pending;
      for (Row& lrow : left_rows) {
        bool matched = false;
        for (size_t ri = 0; ri < state->right_data.size(); ++ri) {
          Row combined = ConcatRows(lrow, state->right_data[ri]);
          auto pass = RexInterpreter::EvalPredicate(condition, combined);
          if (!pass.ok()) return pass.status();
          if (!pass.value()) continue;
          matched = true;
          state->right_matched[ri] = true;
          if (JoinEmitsCombinedRows(join_type)) {
            out.push_back(std::move(combined));
          }
          if (join_type == JoinType::kSemi) break;
        }
        JoinEmitPerLeftRow(join_type, matched, std::move(lrow), right_width, &out);
      }
      if (!out.empty()) return FlushPending(state.get(), batch_size);
    }

    RowBatch out =
        EmitUnmatchedRight(join_type, state.get(), left_width, batch_size);
    if (!out.empty()) return out;
    return RowBatch{};
  });
}

// -------------------------------- Aggregate -------------------------------

RelNodePtr EnumerableAggregate::Create(RelNodePtr input,
                                       std::vector<int> group_keys,
                                       std::vector<AggregateCall> agg_calls,
                                       RelDataTypePtr row_type) {
  return RelNodePtr(new EnumerableAggregate(
      EnumerableTraits(), std::move(row_type), std::move(input),
      std::move(group_keys), std::move(agg_calls)));
}

RelNodePtr EnumerableAggregate::Copy(RelTraitSet traits,
                                     std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableAggregate(std::move(traits), row_type(),
                                            std::move(inputs[0]), group_keys_,
                                            agg_calls_));
}

namespace {

/// State of the reference hash aggregate: groups hold live accumulators
/// fed one row at a time, keyed by the group-key values (an empty key for a
/// global aggregate).
struct HashAggState {
  bool built = false;
  std::unordered_map<Row, size_t, RowHash> group_index;
  std::vector<Row> group_keys_rows;
  std::vector<std::vector<AggAccumulator>> group_accs;
  size_t emit_pos = 0;
};

}  // namespace

Result<RowBatchPuller> EnumerableAggregate::ExecuteBatched(
    const ExecOptions& opts) const {
  if (auto parallel = TryExecuteParallel(*this, opts)) {
    return std::move(*parallel);
  }
  RelNodePtr self = shared_from_this();  // pins group_keys_ / agg_calls_
  const size_t batch_size = NormalizedBatchSize(opts);
  // Columnar path: batches feed the typed accumulator adders straight from
  // column storage — group-key probing and NULL skipping never box a cell
  // unless the group key is genuinely new (or composite).
  if (opts.enable_columnar) {
    auto in = LiftToColumns(*input(0), opts);
    if (!in.ok()) return in.status();
    ColumnBatchPuller pull = std::move(in).value();
    auto builder =
        std::make_shared<ColumnarAggBuilder>(group_keys_, agg_calls_);
    auto built = std::make_shared<bool>(false);
    return RowBatchPuller(
        [self, builder, pull, built, batch_size]() -> Result<RowBatch> {
          if (!*built) {
            for (;;) {
              auto batch = pull();
              if (!batch.ok()) return batch.status();
              const ColumnBatch& cols = batch.value();
              if (cols.AtEnd()) break;
              CALCITE_RETURN_IF_ERROR(builder->Feed(cols));
            }
            *built = true;
          }
          return builder->EmitBatch(batch_size);
        });
  }
  // Reference path: per-row Add into accumulators found by a hash probe,
  // groups in first-seen key order.
  auto in = input(0)->ExecuteBatched(opts);
  if (!in.ok()) return in.status();
  const EnumerableAggregate* node = this;
  auto state = std::make_shared<HashAggState>();
  RowBatchPuller pull = std::move(in).value();
  return RowBatchPuller([self, node, state, pull,
                         batch_size]() -> Result<RowBatch> {
    const std::vector<int>& group_keys = node->group_keys_;
    const std::vector<AggregateCall>& agg_calls = node->agg_calls_;
    auto new_group = [&](Row key) {
      state->group_keys_rows.push_back(std::move(key));
      std::vector<AggAccumulator> accs;
      accs.reserve(agg_calls.size());
      for (const AggregateCall& call : agg_calls) accs.emplace_back(call);
      state->group_accs.push_back(std::move(accs));
    };
    if (!state->built) {
      Row key;  // probe key reused across rows; copied only for new groups
      for (;;) {
        auto batch = pull();
        if (!batch.ok()) return batch.status();
        if (batch.value().empty()) break;
        for (const Row& row : batch.value()) {
          key.clear();
          for (int k : group_keys) key.push_back(row[static_cast<size_t>(k)]);
          size_t group;
          auto it = state->group_index.find(key);
          if (it != state->group_index.end()) {
            group = it->second;
          } else {
            group = state->group_accs.size();
            state->group_index.emplace(key, group);
            new_group(key);
          }
          for (AggAccumulator& acc : state->group_accs[group]) {
            CALCITE_RETURN_IF_ERROR(acc.Add(row));
          }
        }
      }
      // Global aggregate over empty input still produces one row.
      if (group_keys.empty() && state->group_accs.empty()) new_group(Row{});
      state->built = true;
    }

    RowBatch out;
    while (state->emit_pos < state->group_accs.size() &&
           out.size() < batch_size) {
      size_t g = state->emit_pos++;
      Row result = std::move(state->group_keys_rows[g]);
      result.reserve(result.size() + agg_calls.size());
      for (const AggAccumulator& acc : state->group_accs[g]) {
        result.push_back(acc.Finish());
      }
      out.push_back(std::move(result));
    }
    return out;
  });
}

// ---------------------------------- Sort -----------------------------------

RelNodePtr EnumerableSort::Create(RelNodePtr input, RelCollation collation,
                                  int64_t offset, int64_t fetch) {
  RelDataTypePtr row_type = input->row_type();
  RelTraitSet traits(Convention::Enumerable(), collation);
  return RelNodePtr(new EnumerableSort(std::move(traits), std::move(row_type),
                                       std::move(input), std::move(collation),
                                       offset, fetch));
}

RelNodePtr EnumerableSort::Copy(RelTraitSet traits,
                                std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableSort(std::move(traits), row_type(),
                                       std::move(inputs[0]), collation_,
                                       offset_, fetch_));
}

namespace {

/// Reference-path state: the boxed input rows, sorted in place.
struct SortState {
  bool built = false;
  std::vector<Row> data;
  size_t pos = 0;
  size_t end = 0;
};

/// One sort key pulled out of every kept batch into a single array indexed
/// by position. When every batch carries the key column in one typed class,
/// raw cells are compared; a kValue column in any batch, or batches that
/// disagree on the class, compare the key as boxed Values instead.
struct SortKey {
  PhysType type = PhysType::kValue;
  bool desc = false;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<StringRef> str;
  std::vector<uint8_t> b8;
  std::vector<uint8_t> nulls;  // empty when no cell is NULL
  std::vector<Value> boxed;

  SortKey(const KeptBatches& in, const FieldCollation& fc)
      : desc(fc.direction == Direction::kDescending) {
    const size_t field = static_cast<size_t>(fc.field);
    if (!in.batches.empty()) type = in.batches[0].cols[field].type;
    for (const ColumnBatch& batch : in.batches) {
      if (batch.cols[field].type != type) type = PhysType::kValue;
    }
    switch (type) {
      case PhysType::kInt64:
        i64.resize(in.size);
        break;
      case PhysType::kDouble:
        f64.resize(in.size);
        break;
      case PhysType::kString:
        str.resize(in.size);
        break;
      case PhysType::kBool:
        b8.resize(in.size);
        break;
      case PhysType::kValue:
        boxed.resize(in.size);
        break;
    }
    size_t p = 0;
    for (const ColumnBatch& batch : in.batches) {
      const ColumnVector& col = batch.cols[field];
      for (size_t k = 0; k < batch.ActiveCount(); ++k, ++p) {
        const size_t i = batch.ActiveIndex(k);
        if (type == PhysType::kValue) {
          boxed[p] = col.GetValue(i);
          continue;
        }
        if (col.nulls != nullptr && col.nulls[i] != 0) {
          if (nulls.empty()) nulls.resize(in.size);
          nulls[p] = 1;
          continue;
        }
        switch (type) {
          case PhysType::kInt64:
            i64[p] = col.i64[i];
            break;
          case PhysType::kDouble:
            f64[p] = col.f64[i];
            break;
          case PhysType::kString:
            str[p] = col.str[i];
            break;
          case PhysType::kBool:
            b8[p] = col.b8[i] != 0 ? 1 : 0;
            break;
          case PhysType::kValue:
            break;
        }
      }
    }
  }

  /// Value::Compare of the cells at positions a and b, negated for DESC —
  /// one step of CompareRows: NULL sorts lowest, numbers compare as
  /// a < b ? -1 : a > b ? 1 : 0, strings bytewise.
  int Compare(uint32_t a, uint32_t b) const {
    int c = 0;
    if (type == PhysType::kValue) {
      c = boxed[a].Compare(boxed[b]);
    } else if (!nulls.empty() && (nulls[a] != 0 || nulls[b] != 0)) {
      c = nulls[a] == nulls[b] ? 0 : (nulls[a] != 0 ? -1 : 1);
    } else {
      switch (type) {
        case PhysType::kInt64:
          c = i64[a] < i64[b] ? -1 : (i64[a] > i64[b] ? 1 : 0);
          break;
        case PhysType::kDouble:
          c = f64[a] < f64[b] ? -1 : (f64[a] > f64[b] ? 1 : 0);
          break;
        case PhysType::kString: {
          const int r = str[a].view().compare(str[b].view());
          c = r < 0 ? -1 : (r > 0 ? 1 : 0);
          break;
        }
        case PhysType::kBool:
          c = static_cast<int>(b8[a]) - static_cast<int>(b8[b]);
          break;
        case PhysType::kValue:
          break;
      }
    }
    return desc ? -c : c;
  }
};

/// Columnar-path state: the kept input and the positions to emit, in order.
struct ColumnarSortState {
  bool built = false;
  KeptBatches in;
  std::vector<uint32_t> order;
  size_t pos = 0;
  size_t end = 0;
};

/// Orders the kept input by `collation` into state->order and sets the
/// emitted window [pos, end) to [offset, offset + fetch). With a fetch only
/// the first offset + fetch positions are sorted (a partial sort, ties broken
/// on input position); otherwise a stable sort. Either way the emitted rows
/// are exactly those of stable-sorting the boxed rows with CompareRows.
void SortKeptBatches(const RelCollation& collation, int64_t offset,
                     int64_t fetch, ColumnarSortState* state) {
  const size_t n = state->in.size;
  state->pos = std::min(n, static_cast<size_t>(std::max<int64_t>(0, offset)));
  state->end = n;
  if (fetch >= 0) {
    state->end = state->pos + std::min(static_cast<size_t>(fetch),
                                       n - state->pos);
  }
  state->order.resize(n);
  for (size_t p = 0; p < n; ++p) state->order[p] = static_cast<uint32_t>(p);
  if (collation.empty() || state->end == state->pos) return;

  std::vector<SortKey> keys;
  keys.reserve(collation.fields().size());
  for (const FieldCollation& fc : collation.fields()) {
    keys.emplace_back(state->in, fc);
  }
  auto compare = [&keys](uint32_t a, uint32_t b) {
    for (const SortKey& key : keys) {
      const int c = key.Compare(a, b);
      if (c != 0) return c;
    }
    return 0;
  };
  std::vector<uint32_t>& order = state->order;
  if (state->end < n) {
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<ptrdiff_t>(state->end),
                      order.end(), [&compare](uint32_t a, uint32_t b) {
                        const int c = compare(a, b);
                        return c != 0 ? c < 0 : a < b;
                      });
  } else {
    std::stable_sort(order.begin(), order.end(),
                     [&compare](uint32_t a, uint32_t b) {
                       return compare(a, b) < 0;
                     });
  }
}

}  // namespace

Result<RowBatchPuller> EnumerableSort::ExecuteBatched(
    const ExecOptions& opts) const {
  RelNodePtr self = shared_from_this();  // pins collation_
  const EnumerableSort* node = this;
  const int64_t offset = offset_;
  const int64_t fetch = fetch_;
  const size_t batch_size = NormalizedBatchSize(opts);
  // Columnar path: keep the input batches, sort a permutation of their
  // positions on typed key arrays, and box only the emitted rows.
  if (opts.enable_columnar) {
    auto in = LiftToColumns(*input(0), opts);
    if (!in.ok()) return in.status();
    ColumnBatchPuller pull = std::move(in).value();
    auto state = std::make_shared<ColumnarSortState>();
    return RowBatchPuller([self, node, offset, fetch, state, pull,
                           batch_size]() -> Result<RowBatch> {
      if (!state->built) {
        for (;;) {
          auto batch = pull();
          if (!batch.ok()) return batch.status();
          if (batch.value().AtEnd()) break;
          state->in.Add(std::move(batch).value());
        }
        SortKeptBatches(node->collation_, offset, fetch, state.get());
        state->built = true;
      }
      return state->in.Emit(state->order, &state->pos, state->end,
                            batch_size);
    });
  }
  // Reference path: box every row and stable-sort with CompareRows.
  auto in = input(0)->ExecuteBatched(opts);
  if (!in.ok()) return in.status();
  auto state = std::make_shared<SortState>();
  RowBatchPuller pull = std::move(in).value();

  return RowBatchPuller([self, node, offset, fetch, state, pull,
                         batch_size]() -> Result<RowBatch> {
    const RelCollation& collation = node->collation_;
    if (!state->built) {
      for (;;) {
        auto batch = pull();
        if (!batch.ok()) return batch.status();
        if (batch.value().empty()) break;
        for (Row& row : batch.value()) state->data.push_back(std::move(row));
      }
      if (!collation.empty()) {
        std::stable_sort(state->data.begin(), state->data.end(),
                         [&collation](const Row& a, const Row& b) {
                           return CompareRows(a, b, collation) < 0;
                         });
      }
      state->pos = std::min(
          state->data.size(),
          static_cast<size_t>(std::max<int64_t>(0, offset)));
      state->end = state->data.size();
      if (fetch >= 0) {
        state->end = std::min(state->end,
                              state->pos + static_cast<size_t>(fetch));
      }
      state->built = true;
    }
    RowBatch out;
    size_t n = std::min(batch_size, state->end - state->pos);
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(std::move(state->data[state->pos + i]));
    }
    state->pos += n;
    return out;
  });
}

// --------------------------------- SetOp ----------------------------------

std::string EnumerableSetOp::op_name() const {
  switch (set_kind()) {
    case Kind::kUnion:
      return "EnumerableUnion";
    case Kind::kIntersect:
      return "EnumerableIntersect";
    case Kind::kMinus:
      return "EnumerableMinus";
  }
  return "EnumerableSetOp";
}

RelNodePtr EnumerableSetOp::Create(std::vector<RelNodePtr> inputs, Kind kind,
                                   bool all, RelDataTypePtr row_type) {
  return RelNodePtr(new EnumerableSetOp(EnumerableTraits(),
                                        std::move(row_type), std::move(inputs),
                                        kind, all));
}

RelNodePtr EnumerableSetOp::Copy(RelTraitSet traits,
                                 std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableSetOp(std::move(traits), row_type(),
                                        std::move(inputs), set_kind_, all_));
}

namespace {

/// Multiset combination of fully-materialized inputs (INTERSECT / MINUS and
/// the deduplicating UNION; UNION ALL streams and never reaches this): the
/// reference path, and the rules BuildColumnarSetOp applies to key ids.
std::vector<Row> CombineSetOp(SetOp::Kind kind, bool all,
                              std::vector<std::vector<Row>> input_rows) {
  std::vector<Row> out;
  switch (kind) {
    case SetOp::Kind::kUnion: {
      for (std::vector<Row>& rows : input_rows) {
        out.insert(out.end(), std::make_move_iterator(rows.begin()),
                   std::make_move_iterator(rows.end()));
      }
      if (!all) {
        std::map<Row, bool, RowLess> seen;
        std::vector<Row> dedup;
        for (Row& row : out) {
          if (seen.emplace(row, true).second) dedup.push_back(std::move(row));
        }
        out = std::move(dedup);
      }
      return out;
    }
    case SetOp::Kind::kIntersect: {
      // Bag intersect: multiplicity = min across inputs (1 for DISTINCT).
      std::map<Row, size_t, RowLess> counts;
      for (const Row& row : input_rows[0]) ++counts[row];
      for (size_t i = 1; i < input_rows.size(); ++i) {
        std::map<Row, size_t, RowLess> other;
        for (const Row& row : input_rows[i]) ++other[row];
        for (auto& [row, count] : counts) {
          auto it = other.find(row);
          count = std::min(count, it == other.end() ? 0 : it->second);
        }
      }
      for (const Row& row : input_rows[0]) {
        auto it = counts.find(row);
        if (it != counts.end() && it->second > 0) {
          out.push_back(row);
          if (all) {
            --it->second;
          } else {
            it->second = 0;
          }
        }
      }
      return out;
    }
    case SetOp::Kind::kMinus: {
      std::map<Row, size_t, RowLess> subtract;
      for (size_t i = 1; i < input_rows.size(); ++i) {
        for (const Row& row : input_rows[i]) ++subtract[row];
      }
      std::map<Row, bool, RowLess> emitted;
      for (const Row& row : input_rows[0]) {
        auto it = subtract.find(row);
        if (it != subtract.end() && it->second > 0) {
          if (all) --it->second;
          continue;
        }
        if (!all && !emitted.emplace(row, true).second) continue;
        out.push_back(row);
      }
      return out;
    }
  }
  return out;
}

/// Columnar-path state of INTERSECT, EXCEPT and UNION without ALL: every
/// input row resolves to the id of its distinct value in one key table
/// (first-seen ids, Value equality). UNION emits the table's keys in id
/// order; INTERSECT and EXCEPT keep input 0 and emit its surviving rows.
struct ColumnarSetOpState {
  bool built = false;
  std::unique_ptr<ColumnarAggBuilder> keys;
  KeptBatches first;
  std::vector<uint32_t> order;  // positions of `first` to emit
  size_t pos = 0;
};

/// Drains every input into `state`, applying CombineSetOp's multiset rules
/// to per-input counts of key ids.
Status BuildColumnarSetOp(SetOp::Kind kind, bool all,
                          const std::vector<RelNodePtr>& ins,
                          const ExecOptions& opts, ColumnarSetOpState* state) {
  std::vector<int> columns(ins[0]->row_type()->fields().size());
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c] = static_cast<int>(c);
  }
  state->keys = std::make_unique<ColumnarAggBuilder>(
      std::move(columns), std::vector<AggregateCall>{});
  ColumnarAggBuilder& keys = *state->keys;
  std::vector<uint32_t> first_ids;  // key id of each position of input 0
  std::vector<uint32_t> count;      // INTERSECT: min over inputs so far;
                                    // EXCEPT: total over inputs 1..n-1
  std::vector<uint32_t> other;      // INTERSECT: the current input's counts
  for (size_t i = 0; i < ins.size(); ++i) {
    // Inputs lift one at a time, so parallel fragments never overlap.
    auto in = LiftToColumns(*ins[i], opts);
    if (!in.ok()) return in.status();
    const ColumnBatchPuller& pull = in.value();
    other.clear();
    for (;;) {
      auto batch = pull();
      if (!batch.ok()) return batch.status();
      if (batch.value().AtEnd()) break;
      const std::vector<uint32_t>& ids = keys.ResolveKeys(batch.value());
      if (kind == SetOp::Kind::kUnion) continue;
      if (i == 0) {
        first_ids.insert(first_ids.end(), ids.begin(), ids.end());
        state->first.Add(std::move(batch).value());
        continue;
      }
      std::vector<uint32_t>& counts =
          kind == SetOp::Kind::kIntersect ? other : count;
      counts.resize(keys.num_groups());
      for (uint32_t id : ids) ++counts[id];
    }
    if (kind == SetOp::Kind::kIntersect) {
      if (i == 0) {
        count.assign(keys.num_groups(), 0);
        for (uint32_t id : first_ids) ++count[id];
      } else {
        for (size_t id = 0; id < count.size(); ++id) {
          count[id] = std::min(count[id], id < other.size() ? other[id] : 0u);
        }
      }
    }
  }
  if (kind == SetOp::Kind::kUnion) return Status::OK();

  count.resize(keys.num_groups());
  std::vector<uint8_t> emitted(
      kind == SetOp::Kind::kMinus && !all ? keys.num_groups() : 0);
  for (size_t p = 0; p < first_ids.size(); ++p) {
    const uint32_t id = first_ids[p];
    if (kind == SetOp::Kind::kIntersect) {
      // Bag intersect: multiplicity = min across inputs (1 for DISTINCT).
      if (count[id] == 0) continue;
      count[id] = all ? count[id] - 1 : 0;
    } else {
      if (count[id] > 0) {
        if (all) --count[id];
        continue;
      }
      if (!all) {
        if (emitted[id] != 0) continue;
        emitted[id] = 1;
      }
    }
    state->order.push_back(static_cast<uint32_t>(p));
  }
  return Status::OK();
}

}  // namespace

Result<RowBatchPuller> EnumerableSetOp::ExecuteBatched(
    const ExecOptions& opts) const {
  RelNodePtr self = shared_from_this();
  if (set_kind_ == Kind::kUnion && all_) {
    // UNION ALL streams: batches flow through from each input in turn
    // without re-batching or materialization.
    std::vector<RowBatchPuller> pullers;
    pullers.reserve(inputs().size());
    for (const RelNodePtr& in : inputs()) {
      auto puller = in->ExecuteBatched(opts);
      if (!puller.ok()) return puller;
      pullers.push_back(std::move(puller).value());
    }
    auto shared = std::make_shared<std::vector<RowBatchPuller>>(
        std::move(pullers));
    auto current = std::make_shared<size_t>(0);
    return RowBatchPuller([self, shared, current]() -> Result<RowBatch> {
      while (*current < shared->size()) {
        auto batch = (*shared)[*current]();
        if (!batch.ok()) return batch;
        if (!batch.value().empty()) return batch;
        ++*current;
      }
      return RowBatch{};
    });
  }
  // The remaining kinds need full multiset views of their inputs.
  const Kind kind = set_kind_;
  const bool all = all_;
  std::vector<RelNodePtr> ins = inputs();
  const size_t batch_size = NormalizedBatchSize(opts);
  if (opts.enable_columnar) {
    auto state = std::make_shared<ColumnarSetOpState>();
    return RowBatchPuller([self, kind, all, ins, batch_size, state,
                           opts]() -> Result<RowBatch> {
      if (!state->built) {
        CALCITE_RETURN_IF_ERROR(
            BuildColumnarSetOp(kind, all, ins, opts, state.get()));
        state->built = true;
      }
      if (kind == Kind::kUnion) return state->keys->EmitBatch(batch_size);
      return state->first.Emit(state->order, &state->pos,
                               state->order.size(), batch_size);
    });
  }
  // Reference path: box every input and combine with CombineSetOp.
  auto state = std::make_shared<std::optional<RowBatchPuller>>();
  return RowBatchPuller(
      [self, kind, all, ins, batch_size, state,
       opts]() -> Result<RowBatch> {
        if (!state->has_value()) {
          std::vector<std::vector<Row>> input_rows;
          input_rows.reserve(ins.size());
          for (const RelNodePtr& in : ins) {
            auto puller = in->ExecuteBatched(opts);
            if (!puller.ok()) return puller.status();
            auto rows = DrainBatches(puller.value());
            if (!rows.ok()) return rows.status();
            input_rows.push_back(std::move(rows).value());
          }
          *state = ChunkRows(CombineSetOp(kind, all, std::move(input_rows)),
                             batch_size);
        }
        return (**state)();
      });
}

// --------------------------------- Values ---------------------------------

RelNodePtr EnumerableValues::Create(RelDataTypePtr row_type,
                                    std::vector<Row> tuples) {
  return RelNodePtr(new EnumerableValues(EnumerableTraits(),
                                         std::move(row_type),
                                         std::move(tuples)));
}

RelNodePtr EnumerableValues::Copy(RelTraitSet traits,
                                  std::vector<RelNodePtr> inputs) const {
  (void)inputs;
  return RelNodePtr(
      new EnumerableValues(std::move(traits), row_type(), tuples_));
}

Result<RowBatchPuller> EnumerableValues::ExecuteBatched(
    const ExecOptions& opts) const {
  RelNodePtr self = shared_from_this();  // pins tuples_ for the slicer
  RowBatchPuller pull = SliceRows(tuples_, NormalizedBatchSize(opts));
  return RowBatchPuller(
      [self, pull]() -> Result<RowBatch> { return pull(); });
}

// --------------------------------- Window ---------------------------------

RelNodePtr EnumerableWindow::Create(RelNodePtr input,
                                    std::vector<WindowGroup> groups,
                                    RelDataTypePtr row_type) {
  return RelNodePtr(new EnumerableWindow(EnumerableTraits(),
                                         std::move(row_type), std::move(input),
                                         std::move(groups)));
}

RelNodePtr EnumerableWindow::Copy(RelTraitSet traits,
                                  std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableWindow(std::move(traits), row_type(),
                                         std::move(inputs[0]), groups_));
}

namespace {

/// Evaluates `calls` over the rows data[indexes[lo..hi]] and appends the
/// results to `out`.
Status AggregateFrame(const std::vector<AggregateCall>& calls,
                      const std::vector<Row>& data,
                      const std::vector<size_t>& indexes, size_t lo, size_t hi,
                      Row* out) {
  for (const AggregateCall& call : calls) {
    AggAccumulator acc(call);
    for (size_t f = lo; f <= hi; ++f) {
      CALCITE_RETURN_IF_ERROR(acc.Add(data[indexes[f]]));
    }
    out->push_back(acc.Finish());
  }
  return Status::OK();
}

/// Appends each window group's aggregate columns to copies of `data`.
Result<std::vector<Row>> ComputeWindows(const std::vector<WindowGroup>& groups,
                                        const std::vector<Row>& data) {
  // Output rows start as copies of the input; window columns are appended.
  std::vector<Row> out = data;

  for (const WindowGroup& group : groups) {
    // Partition the row indexes.
    std::map<Row, std::vector<size_t>, RowLess> partitions;
    for (size_t i = 0; i < data.size(); ++i) {
      Row key;
      key.reserve(group.partition_keys.size());
      for (int k : group.partition_keys) {
        key.push_back(data[i][static_cast<size_t>(k)]);
      }
      partitions[std::move(key)].push_back(i);
    }
    for (auto& [key, indexes] : partitions) {
      if (!group.is_rows && group.order.fields().empty()) {
        // No ordering: every partition row is a peer of every other, so the
        // default RANGE frame spans the whole partition and its aggregates
        // are the same for every row — compute them once.
        Row agg_values;
        CALCITE_RETURN_IF_ERROR(AggregateFrame(
            group.agg_calls, data, indexes, 0, indexes.size() - 1,
            &agg_values));
        for (size_t i : indexes) {
          out[i].insert(out[i].end(), agg_values.begin(), agg_values.end());
        }
        continue;
      }
      // Order rows within the partition.
      std::stable_sort(indexes.begin(), indexes.end(),
                       [&](size_t a, size_t b) {
                         return CompareRows(data[a], data[b], group.order) < 0;
                       });
      for (size_t pos = 0; pos < indexes.size(); ++pos) {
        // Determine the frame [lo, hi] for the row at `pos`.
        size_t lo = 0;
        size_t hi = pos;
        if (group.is_rows) {
          if (group.preceding >= 0) {
            lo = pos >= static_cast<size_t>(group.preceding)
                     ? pos - static_cast<size_t>(group.preceding)
                     : 0;
          }
          hi = std::min(indexes.size() - 1,
                        pos + static_cast<size_t>(
                                  std::max<int64_t>(0, group.following)));
        } else {
          // RANGE frame on the first ordering key (numeric).
          int order_field = group.order.fields()[0].field;
          const Value& current =
              data[indexes[pos]][static_cast<size_t>(order_field)];
          if (group.preceding >= 0 && current.is_numeric()) {
            double low_bound =
                current.AsDouble() - static_cast<double>(group.preceding);
            while (lo < pos) {
              const Value& v =
                  data[indexes[lo]][static_cast<size_t>(order_field)];
              if (!v.IsNull() && v.AsDouble() >= low_bound) break;
              ++lo;
            }
          }
          // CURRENT ROW in RANGE mode includes peers of the current value.
          while (hi + 1 < indexes.size()) {
            const Value& v =
                data[indexes[hi + 1]][static_cast<size_t>(order_field)];
            if (v.Compare(current) != 0) break;
            ++hi;
          }
        }
        CALCITE_RETURN_IF_ERROR(AggregateFrame(group.agg_calls, data, indexes,
                                               lo, hi, &out[indexes[pos]]));
      }
    }
  }
  return out;
}

}  // namespace

Result<RowBatchPuller> EnumerableWindow::ExecuteBatched(
    const ExecOptions& opts) const {
  // Window frames reach arbitrarily far across the partition, so the
  // operator is inherently blocking: drain the input under the query's
  // options, compute, then re-chunk.
  auto in = input(0)->ExecuteBatched(opts);
  if (!in.ok()) return in.status();
  auto data = DrainBatches(in.value());
  if (!data.ok()) return data.status();
  auto rows = ComputeWindows(groups_, data.value());
  if (!rows.ok()) return rows.status();
  RowBatchPuller puller = ChunkRows(std::move(rows).value(),
                                    NormalizedBatchSize(opts));
  RelNodePtr self = shared_from_this();
  return RowBatchPuller(
      [self, puller]() -> Result<RowBatch> { return puller(); });
}

// ------------------------------- Interpreter -------------------------------

RelNodePtr EnumerableInterpreter::Create(RelNodePtr input) {
  RelDataTypePtr row_type = input->row_type();
  // The interpreter streams rows through unchanged, so the input's ordering
  // survives the convention crossing — e.g. a CassandraSort's clustering
  // order still counts toward an ORDER BY required at the root.
  RelTraitSet traits(Convention::Enumerable(), input->traits().collation());
  return RelNodePtr(new EnumerableInterpreter(
      std::move(traits), std::move(row_type), std::move(input)));
}

RelNodePtr EnumerableInterpreter::Copy(RelTraitSet traits,
                                       std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableInterpreter(std::move(traits), row_type(),
                                              std::move(inputs[0])));
}

Result<RowBatchPuller> EnumerableInterpreter::ExecuteBatched(
    const ExecOptions& opts) const {
  // The foreign input executes inside its own engine: its ExecuteBatched
  // computes the result there, reading any enumerable subtree below it
  // under these same options, and re-chunks it (ChunkResult) — the per-row
  // transfer the cost model charges this converter for.
  return input(0)->ExecuteBatched(opts);
}

}  // namespace calcite
