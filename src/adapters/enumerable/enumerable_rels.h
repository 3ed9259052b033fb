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
///
/// Each operator has at most two execution bodies: a columnar path
/// (TryExecuteColumnar, ColumnBatches out) and the per-row reference
/// (ExecuteBatched). One function in enumerable_rels.cc, the only reader of
/// ExecOptions::enable_columnar, picks the body for every node: a
/// morsel-parallel fragment (exec/parallel/parallel_exec.h), else the
/// columnar path, else the rows. A columnar operator's ExecuteBatched boxes
/// that choice's batches once for a row consumer, or runs its reference
/// body when enable_columnar is off.
///
///   operator          columnar path                 reference (rows)
///   TableScan         slices of MaterializedColumns OpenScan
///   Filter            leaf pushdown + FusedExpr     OpenScan + EvalPredicate
///   Project           FusedExpr columns             Eval per row
///   HashJoin          KeyTable probe + gather       Row-keyed hash table
///   Aggregate         ColumnarAggBuilder            AggAccumulator::Add
///   Sort              permutation of kept batches   stable_sort of rows
///   SetOp (not        KeyTable ids + gather         CombineSetOp
///     UNION ALL)
///   UNION ALL, Values, Window, NestedLoopJoin, Interpreter: rows only
///
/// A columnar consumer reads a rows-only input decoded into columns, and a
/// TableScan over a table with no columnar decomposition (DiskTable) the
/// same way; a row consumer of a bare TableScan reads OpenScan.

class EnumerableTableScan final : public TableScan {
 public:
  static RelNodePtr Create(const TableScan& scan);

  std::string op_name() const override { return "EnumerableTableScan"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  /// Zero-copy columnar scan over the table's cached column decomposition
  /// (nullopt when the table exposes none).
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using TableScan::TableScan;
};

/// Filter with leaf pushdown: when the input is a table scan, simple
/// `column <op> literal` / NULL-test conjuncts run inside the scan
/// (ScanTableColumns over a columnar decomposition, otherwise
/// Table::OpenScan) before rows are materialized. The columnar path
/// narrows each ColumnBatch's selection vector by the residual through
/// FusedExpr, over whatever input LiftToColumns provides; the reference
/// evaluates the residual's conjuncts per row, in order.
class EnumerableFilter final : public Filter {
 public:
  static RelNodePtr Create(RelNodePtr input, RexNodePtr condition);

  std::string op_name() const override { return "EnumerableFilter"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  /// Columnar filter: rows are never compacted, only each batch's
  /// selection shrinks.
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using Filter::Filter;
};

/// A Filter's condition split for leaf pushdown, shared by its columnar,
/// reference and morsel-parallel paths: when the input is an enumerable
/// table scan, the simple `column <op> literal` / NULL-test conjuncts go to
/// `pushed`; `residual` holds what the filter itself evaluates (the whole
/// condition when nothing pushes).
struct FilterPushdown {
  const EnumerableTableScan* scan = nullptr;
  ScanPredicateList pushed;
  std::vector<RexNodePtr> residual;
};

FilterPushdown SplitPushdown(const Filter& filter);

class EnumerableProject final : public Project {
 public:
  static RelNodePtr Create(RelNodePtr input, std::vector<RexNodePtr> exprs,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableProject"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  /// Columnar projection over any input (lifted when it is not columnar):
  /// each expression becomes one dense output column computed by FusedExpr
  /// over the input's active rows; input columns referenced verbatim are
  /// aliased, not copied, when no selection is in play.
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using Project::Project;
};

/// Hash join over the equi-key part of the condition; any residual
/// non-equi conjuncts are evaluated on each matched pair. "The
/// EnumerableJoin operator implements joins by collecting rows from its
/// child nodes and joining on the desired attributes" (§5). Its columnar
/// path never boxes a row: the build (right) side is kept as the batches
/// it arrived in, whose keys resolve to KeyTable ids, probe
/// batches look their key columns up in one pass, and the output is
/// gathered column by column from the matched (probe, build) pairs — outer
/// NULL extension as null bytemaps, SEMI/ANTI as a selection over the probe
/// batch, residuals through FusedExpr. The reference boxes both sides into
/// a Row-keyed hash table. Both emit rows in the same order:
/// probe order, build order within a key, then unmatched build rows.
class EnumerableHashJoin final : public Join {
 public:
  static RelNodePtr Create(RelNodePtr left, RelNodePtr right,
                           RexNodePtr condition, JoinType join_type,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableHashJoin"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using Join::Join;
};

/// Join for conditions without an equi-key part.
class EnumerableNestedLoopJoin final : public Join {
 public:
  static RelNodePtr Create(RelNodePtr left, RelNodePtr right,
                           RexNodePtr condition, JoinType join_type,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableNestedLoopJoin"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

  std::optional<RelOptCost> SelfCost(MetadataQuery* mq) const override;

 private:
  using Join::Join;
};

/// Hash aggregate: ColumnarAggBuilder over LiftToColumns's batches, its
/// groups emitted as ColumnBatches; the reference feeds each boxed row to
/// AggAccumulator::Add.
class EnumerableAggregate final : public Aggregate {
 public:
  static RelNodePtr Create(RelNodePtr input, std::vector<int> group_keys,
                           std::vector<AggregateCall> agg_calls,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableAggregate"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using Aggregate::Aggregate;
};

/// Sort + OFFSET/FETCH. Its trait set carries the produced collation, which
/// is how already-sorted inputs make the sort redundant (§4's sort-removal
/// example operates through subset membership in the cost-based planner).
/// Its columnar path sorts a permutation of its kept input batches on typed
/// key arrays (a partial sort under a fetch) and gathers only the emitted
/// rows into ColumnBatches; the reference stable-sorts boxed rows.
class EnumerableSort final : public Sort {
 public:
  static RelNodePtr Create(RelNodePtr input, RelCollation collation,
                           int64_t offset, int64_t fetch);

  std::string op_name() const override { return "EnumerableSort"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using Sort::Sort;
};

/// UNION / INTERSECT / EXCEPT. UNION ALL streams its inputs' row batches
/// and has no columnar path. The others resolve every input row to a key
/// id in a ColumnarAggBuilder key table and emit ColumnBatches: UNION the
/// table's keys, INTERSECT and EXCEPT the surviving rows gathered from
/// their kept first input. The reference boxes every input row into
/// CombineSetOp.
class EnumerableSetOp final : public SetOp {
 public:
  static RelNodePtr Create(std::vector<RelNodePtr> inputs, Kind kind, bool all,
                           RelDataTypePtr row_type);

  std::string op_name() const override;
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using SetOp::SetOp;
};

class EnumerableValues final : public Values {
 public:
  static RelNodePtr Create(RelDataTypePtr row_type, std::vector<Row> tuples);

  std::string op_name() const override { return "EnumerableValues"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
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
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Converter::Converter;
};

/// Builds the concatenated row of a join result (left fields then right
/// fields).
Row ConcatRows(const Row& left, const Row& right);

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_ENUMERABLE_ENUMERABLE_RELS_H_
