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
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  /// Zero-copy columnar scan over the table's cached column decomposition
  /// (when the table exposes one).
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using TableScan::TableScan;
};

/// Filter with leaf pushdown: when the input is a table scan, simple
/// `column <op> literal` / NULL-test conjuncts run inside the scan
/// (ScanTableColumns over a columnar decomposition, otherwise
/// Table::OpenScan) before rows are materialized. With enable_columnar on
/// the residual narrows each ColumnBatch's selection vector through the
/// columnar kernels, over whatever input LiftToColumns provides; off, it is
/// evaluated per row (the reference).
class EnumerableFilter final : public Filter {
 public:
  static RelNodePtr Create(RelNodePtr input, RexNodePtr condition);

  std::string op_name() const override { return "EnumerableFilter"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  /// Columnar filter: rows are never compacted, only each batch's
  /// selection shrinks. Returns a puller whenever enable_columnar is on.
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
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  /// Columnar projection over any input (lifted when it is not columnar):
  /// each expression becomes one dense output column computed by FusedExpr
  /// over the input's active rows; input columns referenced verbatim are
  /// aliased, not copied, when no selection is in play. Returns a puller
  /// whenever enable_columnar is on.
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using Project::Project;
};

/// Hash join over the equi-key part of the condition; any residual
/// non-equi conjuncts are evaluated on each matched pair. "The
/// EnumerableJoin operator implements joins by collecting rows from its
/// child nodes and joining on the desired attributes" (§5). With
/// enable_columnar on it never boxes a row: the build (right) side is kept
/// as one dense ColumnBatch whose keys resolve to KeyTable ids, probe
/// batches look their key columns up in one pass, and the output is
/// gathered column by column from the matched (probe, build) pairs — outer
/// NULL extension as null bytemaps, SEMI/ANTI as a selection over the probe
/// batch, residuals through FusedExpr. Off, it boxes both sides into a
/// Row-keyed hash table (the reference). Both emit rows in the same order:
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
  /// Columnar join over LiftToColumns's batches of both inputs. Returns a
  /// puller whenever enable_columnar is on.
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

/// Hash aggregate: ColumnarAggBuilder over LiftToColumns's batches with
/// enable_columnar on, per-row AggAccumulator::Add (the reference) off.
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

 private:
  using Aggregate::Aggregate;
};

/// Sort + OFFSET/FETCH. Its trait set carries the produced collation, which
/// is how already-sorted inputs make the sort redundant (§4's sort-removal
/// example operates through subset membership in the cost-based planner).
/// With enable_columnar on it sorts a permutation of its kept input batches
/// on typed key arrays (a partial sort under a fetch) and boxes only the
/// emitted rows; off, it stable-sorts boxed rows (the reference).
class EnumerableSort final : public Sort {
 public:
  static RelNodePtr Create(RelNodePtr input, RelCollation collation,
                           int64_t offset, int64_t fetch);

  std::string op_name() const override { return "EnumerableSort"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Sort::Sort;
};

/// UNION / INTERSECT / EXCEPT. UNION ALL streams its inputs' row batches.
/// The others, with enable_columnar on, resolve every input row to a key id
/// in a ColumnarAggBuilder key table and box only the emitted rows; off,
/// they box every input row into CombineSetOp (the reference).
class EnumerableSetOp final : public SetOp {
 public:
  static RelNodePtr Create(std::vector<RelNodePtr> inputs, Kind kind, bool all,
                           RelDataTypePtr row_type);

  std::string op_name() const override;
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
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
