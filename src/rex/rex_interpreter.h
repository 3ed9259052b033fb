#ifndef CALCITE_REX_REX_INTERPRETER_H_
#define CALCITE_REX_REX_INTERPRETER_H_

#include <vector>

#include "rex/rex_node.h"
#include "type/value.h"
#include "util/status.h"

namespace calcite {

/// Evaluates row expressions against an input row. This is the framework's
/// expression executor: where Calcite generates Java bytecode through
/// Janino, we interpret (documented substitution in DESIGN.md §2). Follows
/// SQL three-valued logic: comparisons and arithmetic over NULL yield NULL;
/// AND/OR short-circuit with UNKNOWN handling; predicates used as filters
/// treat UNKNOWN as not-passing.
class RexInterpreter {
 public:
  /// Evaluates `node` with `input` bound as the source row ($i refers to
  /// input[i]). Returns an error for malformed expressions (e.g. ITEM on a
  /// non-container) — never for NULL values.
  static Result<Value> Eval(const RexNodePtr& node, const Row& input);

  /// Evaluates a predicate for filtering: NULL/UNKNOWN results are false.
  static Result<bool> EvalPredicate(const RexNodePtr& node, const Row& input);

  /// The rows of `rows` passing `condition` under EvalPredicate, in order
  /// (the simulated backends' in-engine filter).
  static Result<std::vector<Row>> FilterRows(const RexNodePtr& condition,
                                             std::vector<Row> rows);

  /// Casts a runtime value to the target SQL type (implements CAST
  /// semantics: numeric narrowing/widening, to/from VARCHAR, etc.).
  static Result<Value> CastValue(const Value& value, const RelDataType& type);
};

}  // namespace calcite

#endif  // CALCITE_REX_REX_INTERPRETER_H_
