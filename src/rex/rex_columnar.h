#ifndef CALCITE_REX_REX_COLUMNAR_H_
#define CALCITE_REX_REX_COLUMNAR_H_

#include <optional>
#include <vector>

#include "exec/column_batch.h"
#include "rex/rex_node.h"
#include "util/status.h"

namespace calcite {

/// Columnar expression kernels: tight loops over contiguous typed columns.
/// Semantics are identical to per-row Eval — SQL three-valued logic,
/// NULL-strict
/// arithmetic with the NULL check before the division-by-zero check, errors
/// raised only for rows in the active selection — which the differential
/// fuzz suite (tests/rex_kernel_fuzz_test.cc) enforces against the row
/// oracle.
class RexColumnar {
 public:
  /// Physical class of `node`'s result when evaluated over inputs with the
  /// given column classes, or nullopt when no typed kernel covers the whole
  /// subtree (the caller then falls back to per-row Eval). Covered: input
  /// refs of typed columns, typed literals, binary arithmetic, comparisons
  /// over compatible classes, NOT / IS [NOT] NULL / IS [NOT] TRUE-FALSE,
  /// unary minus, and numeric CASTs.
  static std::optional<PhysType> ColumnarPhys(
      const RexNodePtr& node, const std::vector<PhysType>& input_phys);

  /// Convenience over a batch's column classes.
  static std::optional<PhysType> ColumnarPhys(const RexNodePtr& node,
                                              const ColumnBatch& in);

  /// Evaluates `node` over the *active* rows of `in` and appends the result
  /// as a dense column (one entry per active row, no selection) to `out`.
  /// Typed results are bump-allocated from out->arena; unsupported subtrees
  /// fall back to per-row Eval into a boxed column owned by out->boxed_pool,
  /// so every expression evaluates. The caller must have called
  /// out->ShareStorage(in) (input columns may be aliased zero-copy) and set
  /// out->num_rows == in.ActiveCount().
  static Status AppendEvalColumn(const RexNodePtr& node, const ColumnBatch& in,
                                 ColumnBatch* out);

  /// Narrows `sel` — ascending candidate indexes into `batch`'s physical
  /// rows — to those where `node` passes as a filter (NULL/UNKNOWN fail),
  /// in place. Conjunctions narrow progressively; ref-vs-literal
  /// comparisons and NULL tests run as fused typed loops on the raw
  /// columns; other supported predicates evaluate densely into `scratch`
  /// (reset by the caller between batches); everything else gathers rows
  /// and asks the row oracle (RexInterpreter::EvalPredicate).
  static Status NarrowSelection(const RexNodePtr& node,
                                const ColumnBatch& batch,
                                const ArenaPtr& scratch,
                                SelectionVector* sel);
};

}  // namespace calcite

#endif  // CALCITE_REX_REX_COLUMNAR_H_
