#ifndef CALCITE_ADAPTERS_ENUMERABLE_ENUMERABLE_RELS_H_
#define CALCITE_ADAPTERS_ENUMERABLE_ENUMERABLE_RELS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rel/core.h"
#include "rex/rex_util.h"  // ExtractScanPredicates (moved; kept for callers)

namespace calcite {

/// Physical operators of the *enumerable calling convention* (§5):
/// client-side operators that "simply operate over tuples via an iterator
/// interface", letting Calcite "implement operators which may not be
/// available in each adapter's backend". This is the framework's built-in
/// execution engine; every logical operator has an enumerable counterpart.

class EnumerableTableScan final : public TableScan {
 public:
  static RelNodePtr Create(const TableScan& scan);

  std::string op_name() const override { return "EnumerableTableScan"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  /// Zero-copy columnar scan over the table's cached column decomposition
  /// (when the table exposes one).
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using TableScan::TableScan;
};

/// Filter with selection-vector pushdown: its native surface is
/// ExecuteSelBatched, which narrows each input batch's selection vector
/// instead of compacting it, and — when the input is a table scan — splits
/// the condition so that simple `column <op> literal` / NULL-test conjuncts
/// run inside the leaf scan before rows are materialized
/// (Table::ScanBatchedFiltered). ExecuteBatched is the compacting bridge
/// for consumers that need dense batches.
class EnumerableFilter final : public Filter {
 public:
  static RelNodePtr Create(RelNodePtr input, RexNodePtr condition);

  std::string op_name() const override { return "EnumerableFilter"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  Result<SelBatchPuller> ExecuteSelBatched(const ExecOptions& opts)
      const override;
  /// Columnar filter: pushes simple conjuncts into the columnar leaf scan
  /// (typed loops over raw column storage) and narrows each batch's
  /// selection vector with the columnar kernels for the residual — rows are
  /// never materialized, only the selection shrinks.
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using Filter::Filter;
};

class EnumerableProject final : public Project {
 public:
  static RelNodePtr Create(RelNodePtr input, std::vector<RexNodePtr> exprs,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableProject"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  /// Columnar projection: each expression becomes one dense output column
  /// computed by a fused typed kernel over the input's active rows
  /// (RexColumnar::AppendEvalColumn); input columns referenced verbatim are
  /// aliased, not copied, when no selection is in play.
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using Project::Project;
};

/// Hash join over the equi-key part of the condition; any residual
/// non-equi conjuncts are evaluated on each matched pair. "The
/// EnumerableJoin operator implements joins by collecting rows from its
/// child nodes and joining on the desired attributes" (§5).
class EnumerableHashJoin final : public Join {
 public:
  static RelNodePtr Create(RelNodePtr left, RelNodePtr right,
                           RexNodePtr condition, JoinType join_type,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableHashJoin"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Join::Join;
};

/// Fallback join for arbitrary (non-equi) conditions.
class EnumerableNestedLoopJoin final : public Join {
 public:
  static RelNodePtr Create(RelNodePtr left, RelNodePtr right,
                           RexNodePtr condition, JoinType join_type,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableNestedLoopJoin"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

  std::optional<RelOptCost> SelfCost(MetadataQuery* mq) const override;

 private:
  using Join::Join;
};

class EnumerableAggregate final : public Aggregate {
 public:
  static RelNodePtr Create(RelNodePtr input, std::vector<int> group_keys,
                           std::vector<AggregateCall> agg_calls,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableAggregate"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Aggregate::Aggregate;
};

/// Sort + OFFSET/FETCH. Its trait set carries the produced collation, which
/// is how already-sorted inputs make the sort redundant (§4's sort-removal
/// example operates through subset membership in the cost-based planner).
class EnumerableSort final : public Sort {
 public:
  static RelNodePtr Create(RelNodePtr input, RelCollation collation,
                           int64_t offset, int64_t fetch);

  std::string op_name() const override { return "EnumerableSort"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Sort::Sort;
};

class EnumerableSetOp final : public SetOp {
 public:
  static RelNodePtr Create(std::vector<RelNodePtr> inputs, Kind kind, bool all,
                           RelDataTypePtr row_type);

  std::string op_name() const override;
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using SetOp::SetOp;
};

class EnumerableValues final : public Values {
 public:
  static RelNodePtr Create(RelDataTypePtr row_type, std::vector<Row> tuples);

  std::string op_name() const override { return "EnumerableValues"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Values::Values;
};

class EnumerableWindow final : public Window {
 public:
  static RelNodePtr Create(RelNodePtr input, std::vector<WindowGroup> groups,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableWindow"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Window::Window;
};

/// Bridges a foreign calling convention into the enumerable convention: it
/// executes its input inside the adapter's engine and exposes the resulting
/// rows through the iterator interface. The metadata cost model charges it a
/// per-row transfer cost, which is what makes pushing operations *into*
/// backends profitable (Figure 2).
class EnumerableInterpreter final : public Converter {
 public:
  static RelNodePtr Create(RelNodePtr input);

  std::string op_name() const override { return "EnumerableInterpreter"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Converter::Converter;
};

/// Builds the concatenated row of a join result (left fields then right
/// fields), padding the missing side with NULLs for outer joins.
Row ConcatRows(const Row& left, const Row& right);
Row PadNullRight(const Row& left, size_t right_width);
Row PadNullLeft(size_t left_width, const Row& right);

/// Row-path project kernel of the serial pull pipelines (the columnar path
/// and the morsel-parallel executor project through FusedExpr instead).
/// Projects the *selected* rows of `batch` in place. Projection writes one
/// fresh output row per live input row, so it compacts as a side effect:
/// on return the batch is dense (has_sel false) with ActiveCount() rows.
Status ApplyProjectToSelBatch(const std::vector<RexNodePtr>& exprs,
                              SelBatch* batch);

/// Join runtime helpers shared by the serial joins and the parallel
/// partitioned hash join.
///
/// The join key of `row` under one side of the equi-key list, or nullopt
/// if any key column is NULL (NULL keys never match).
std::optional<Row> JoinSideKey(const Row& row,
                               const std::vector<std::pair<int, int>>& keys,
                               bool left_side);
/// True for the join types that emit the concatenated row per match
/// (SEMI/ANTI decide emission per left row instead).
bool JoinEmitsCombinedRows(JoinType join_type);
/// True when a probed left row emits on its own once its matches ran:
/// LEFT/FULL pad an unmatched row, SEMI keeps a matched one, ANTI an
/// unmatched one. Columnar probes ask this before gathering the row.
bool JoinEmitsLeftRow(JoinType join_type, bool matched);
/// Emission decided once per probed left row, after its matches ran.
void JoinEmitPerLeftRow(JoinType join_type, bool matched, Row&& lrow,
                        size_t right_width, RowBatch* out);

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_ENUMERABLE_ENUMERABLE_RELS_H_
