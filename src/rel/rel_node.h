#ifndef CALCITE_REL_REL_NODE_H_
#define CALCITE_REL_REL_NODE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/column_batch.h"
#include "exec/row_batch.h"
#include "plan/traits.h"
#include "rex/rex_node.h"
#include "type/rel_data_type.h"
#include "type/value.h"
#include "util/status.h"

namespace calcite {

class RelNode;
class MetadataQuery;
using RelNodePtr = std::shared_ptr<const RelNode>;

/// Join semantics supported by the Join operator.
enum class JoinType { kInner, kLeft, kRight, kFull, kSemi, kAnti };

/// Returns "inner", "left", ...
const char* JoinTypeName(JoinType type);

/// One aggregate function application within an Aggregate or Window
/// operator: e.g. `SUM(DISTINCT $2) AS total`.
struct AggregateCall {
  AggKind kind = AggKind::kCountStar;
  bool distinct = false;
  std::vector<int> args;  // input field indexes; empty for COUNT(*)
  std::string name;       // output field name
  RelDataTypePtr type;    // output type

  /// "SUM($2)" / "COUNT(DISTINCT $0)".
  std::string ToString() const;
};

/// Base class of all relational operators (§4). A RelNode is an immutable
/// node in an operator tree/DAG: it has input operators, an output row type,
/// and a trait set describing its physical properties (calling convention
/// and collation). Calcite "does not use different entities to represent
/// logical and physical operators"; the convention trait distinguishes them.
class RelNode : public std::enable_shared_from_this<RelNode> {
 public:
  virtual ~RelNode() = default;

  RelNode(const RelNode&) = delete;
  RelNode& operator=(const RelNode&) = delete;

  const RelTraitSet& traits() const { return traits_; }
  const Convention* convention() const { return traits_.convention(); }
  const RelDataTypePtr& row_type() const { return row_type_; }
  const std::vector<RelNodePtr>& inputs() const { return inputs_; }
  const RelNodePtr& input(int i) const {
    return inputs_[static_cast<size_t>(i)];
  }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }

  /// Operator display name, e.g. "LogicalFilter", "EnumerableHashJoin",
  /// "CassandraSort".
  virtual std::string op_name() const = 0;

  /// The node's attributes rendered for digests/EXPLAIN (without inputs),
  /// e.g. "condition=[>($1, 10)]".
  virtual std::string DigestAttributes() const { return ""; }

  /// Creates a copy of this node with new traits and inputs; all other
  /// attributes are preserved. The planner uses this to re-parent
  /// expressions onto equivalence-set subsets.
  virtual RelNodePtr Copy(RelTraitSet traits,
                          std::vector<RelNodePtr> inputs) const = 0;

  /// Convenience: copy with same traits.
  RelNodePtr CopyWithNewInputs(std::vector<RelNodePtr> inputs) const {
    return Copy(traits_, std::move(inputs));
  }

  /// Recursive canonical digest: "op{attrs}(inputDigest,...)". Two nodes
  /// with equal digests are semantically identical expressions; the Volcano
  /// planner registers digests to detect duplicates and merge equivalence
  /// sets (§6).
  std::string Digest() const;

  /// The cost of executing *this operator alone* (not its inputs), or
  /// nullopt to let the default metadata provider estimate it. Adapter
  /// nodes override this to advertise push-down benefits.
  virtual std::optional<RelOptCost> SelfCost(MetadataQuery*) const {
    return std::nullopt;
  }

  /// Row-count estimate override for this node, or nullopt for the default
  /// provider's formula.
  virtual std::optional<double> SelfRowCount(MetadataQuery*) const {
    return std::nullopt;
  }

  /// Cumulative-cost override. Used by planner subset placeholders, whose
  /// cumulative cost is the best cost of their equivalence subset rather
  /// than a sum over inputs.
  virtual std::optional<RelOptCost> SelfCumulativeCost(MetadataQuery*) const {
    return std::nullopt;
  }

  /// Column-uniqueness override; subset placeholders delegate to their
  /// equivalence set's canonical expression.
  virtual std::optional<bool> SelfColumnsUnique(
      MetadataQuery*, const std::vector<int>&) const {
    return std::nullopt;
  }

  /// Executes the node and materializes its full result: drains
  /// ExecuteBatched(opts). This is the row-level reference surface (tests,
  /// foreign nodes reading their inputs); the engine itself pulls
  /// ExecuteBatched. Not virtual — operators implement ExecuteBatched.
  Result<std::vector<Row>> Execute(const ExecOptions& opts = ExecOptions{})
      const {
    auto puller = ExecuteBatched(opts);
    if (!puller.ok()) return puller.status();
    return DrainBatches(puller.value());
  }

  /// Executes the node as a pull pipeline (the iterator interface of §5):
  /// the returned puller yields RowBatch chunks of at most `opts.batch_size`
  /// rows (an empty batch ends the stream). Only physical (non-logical
  /// convention) operators are executable; the default reports the node as
  /// logical. Enumerable operators stream natively; foreign-convention
  /// adapter nodes compute their result inside their backend and hand it
  /// over through ChunkResult — the per-row transfer the
  /// EnumerableInterpreter's cost model charges. An operator with a columnar
  /// path boxes that path's batches here once (or, with
  /// opts.enable_columnar off, runs its per-row reference). The returned
  /// puller shares ownership of everything it reads (this node, its
  /// tables), so it stays valid after the caller drops its plan reference.
  virtual Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts) const {
    (void)opts;
    return Status::PlanError("operator " + op_name() +
                             " is not executable (logical convention)");
  }

  /// Columnar batch execution: when this operator produces its output as
  /// column-major ColumnBatch streams, it returns a puller; nullopt (the
  /// default) means "no columnar output" and a columnar consumer decodes
  /// ExecuteBatched's rows instead. adapters/enumerable/enumerable_rels.h
  /// lists the enumerable operators that override it. Implementations do
  /// not read opts.enable_columnar: the engine's one path choice calls them
  /// only with it on. Same ownership contract as ExecuteBatched: the puller
  /// shares ownership of the node, and each yielded batch owns (or pins)
  /// everything its columns point into.
  virtual std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const {
    (void)opts;
    return std::nullopt;
  }

 protected:
  RelNode(RelTraitSet traits, RelDataTypePtr row_type,
          std::vector<RelNodePtr> inputs)
      : traits_(std::move(traits)),
        row_type_(std::move(row_type)),
        inputs_(std::move(inputs)) {}

 private:
  RelTraitSet traits_;
  RelDataTypePtr row_type_;
  std::vector<RelNodePtr> inputs_;
};

/// The batch stream of a foreign-convention node that computes its whole
/// result at once (a remote query, a simulated backend call): `rows`
/// re-chunked to opts.batch_size, or its error. The puller owns the rows.
inline Result<RowBatchPuller> ChunkResult(Result<std::vector<Row>> rows,
                                          const ExecOptions& opts) {
  if (!rows.ok()) return rows.status();
  return ChunkRows(std::move(rows).value(), opts.batch_size);
}

}  // namespace calcite

#endif  // CALCITE_REL_REL_NODE_H_
