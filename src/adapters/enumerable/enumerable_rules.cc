#include "adapters/enumerable/enumerable_rules.h"

#include "adapters/enumerable/enumerable_rels.h"
#include "rel/core.h"

namespace calcite {

namespace {

RelTraitSet EnumerableTraits() {
  return RelTraitSet(Convention::Enumerable());
}

bool IsLogical(const RelNode& node) {
  return node.convention() == Convention::Logical();
}

class EnumerableTableScanRule final : public ConverterRule {
 public:
  EnumerableTableScanRule()
      : ConverterRule(Convention::Logical(), Convention::Enumerable()) {}

  std::string name() const override { return "EnumerableTableScanRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    if (!IsLogical(node)) return false;
    const auto* scan = dynamic_cast<const TableScan*>(&node);
    // Only tables natively stored client-side scan in the enumerable
    // convention; adapter-owned tables are scanned by their adapter's rule.
    return scan != nullptr &&
           scan->table_convention() == Convention::Enumerable();
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& scan = static_cast<const TableScan&>(*call->rel());
    call->TransformTo(EnumerableTableScan::Create(scan));
  }
};

class EnumerableFilterRule final : public ConverterRule {
 public:
  EnumerableFilterRule()
      : ConverterRule(Convention::Logical(), Convention::Enumerable()) {}

  std::string name() const override { return "EnumerableFilterRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogical(node) && dynamic_cast<const Filter*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& filter = static_cast<const Filter&>(*call->rel());
    RelNodePtr input = call->Convert(filter.input(0), EnumerableTraits());
    if (input == nullptr) return;
    call->TransformTo(
        EnumerableFilter::Create(std::move(input), filter.condition()));
  }
};

class EnumerableProjectRule final : public ConverterRule {
 public:
  EnumerableProjectRule()
      : ConverterRule(Convention::Logical(), Convention::Enumerable()) {}

  std::string name() const override { return "EnumerableProjectRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogical(node) && dynamic_cast<const Project*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& project = static_cast<const Project&>(*call->rel());
    RelNodePtr input = call->Convert(project.input(0), EnumerableTraits());
    if (input == nullptr) return;
    call->TransformTo(EnumerableProject::Create(std::move(input),
                                                project.exprs(),
                                                project.row_type()));
  }
};

class EnumerableJoinRule final : public ConverterRule {
 public:
  EnumerableJoinRule()
      : ConverterRule(Convention::Logical(), Convention::Enumerable()) {}

  std::string name() const override { return "EnumerableJoinRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogical(node) && dynamic_cast<const Join*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& join = static_cast<const Join&>(*call->rel());
    RelNodePtr left = call->Convert(join.input(0), EnumerableTraits());
    RelNodePtr right = call->Convert(join.input(1), EnumerableTraits());
    if (left == nullptr || right == nullptr) return;
    std::vector<std::pair<int, int>> keys;
    std::vector<RexNodePtr> remaining;
    // As in Calcite's EnumerableJoinRule, a condition with an equi-key part
    // always becomes a hash join; only the rest run as nested loops. (A
    // nested loop against a side estimated at one row can look cheaper, but
    // it evaluates the whole condition on every boxed pair.)
    if (join.AnalyzeEquiKeys(&keys, &remaining)) {
      call->TransformTo(EnumerableHashJoin::Create(
          std::move(left), std::move(right), join.condition(),
          join.join_type(), join.row_type()));
    } else {
      call->TransformTo(EnumerableNestedLoopJoin::Create(
          std::move(left), std::move(right), join.condition(),
          join.join_type(), join.row_type()));
    }
  }
};

class EnumerableAggregateRule final : public ConverterRule {
 public:
  EnumerableAggregateRule()
      : ConverterRule(Convention::Logical(), Convention::Enumerable()) {}

  std::string name() const override { return "EnumerableAggregateRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogical(node) && dynamic_cast<const Aggregate*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& agg = static_cast<const Aggregate&>(*call->rel());
    RelNodePtr input = call->Convert(agg.input(0), EnumerableTraits());
    if (input == nullptr) return;
    call->TransformTo(EnumerableAggregate::Create(std::move(input),
                                                  agg.group_keys(),
                                                  agg.agg_calls(),
                                                  agg.row_type()));
  }
};

class EnumerableSortRule final : public ConverterRule {
 public:
  EnumerableSortRule()
      : ConverterRule(Convention::Logical(), Convention::Enumerable()) {}

  std::string name() const override { return "EnumerableSortRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogical(node) && dynamic_cast<const Sort*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& sort = static_cast<const Sort&>(*call->rel());
    RelNodePtr input = call->Convert(sort.input(0), EnumerableTraits());
    if (input == nullptr) return;
    call->TransformTo(EnumerableSort::Create(std::move(input),
                                             sort.collation(), sort.offset(),
                                             sort.fetch()));
    // If an input already provides the required ordering, the sort reduces
    // to pure OFFSET/FETCH (or disappears). Register that alternative too:
    // an input subset with the sort's collation as a required trait.
    if (!sort.collation().empty()) {
      RelNodePtr sorted_input = call->Convert(
          sort.input(0), RelTraitSet(Convention::Enumerable(),
                                     sort.collation()));
      if (sorted_input != nullptr) {
        if (sort.offset() == 0 && sort.fetch() < 0) {
          // Pure ORDER BY over an already-ordered input: the sort is
          // redundant (§4's sort-removal example). The subset placeholder
          // merges this operator's set with its input's set; the ordering
          // requirement survives as a trait demanded from the root.
          call->TransformTo(std::move(sorted_input));
        } else {
          call->TransformTo(EnumerableSort::Create(std::move(sorted_input),
                                                   sort.collation(),
                                                   sort.offset(),
                                                   sort.fetch()));
        }
      }
    }
  }
};

class EnumerableSetOpRule final : public ConverterRule {
 public:
  EnumerableSetOpRule()
      : ConverterRule(Convention::Logical(), Convention::Enumerable()) {}

  std::string name() const override { return "EnumerableSetOpRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogical(node) && dynamic_cast<const SetOp*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& setop = static_cast<const SetOp&>(*call->rel());
    std::vector<RelNodePtr> inputs;
    inputs.reserve(setop.inputs().size());
    for (const RelNodePtr& input : setop.inputs()) {
      RelNodePtr converted = call->Convert(input, EnumerableTraits());
      if (converted == nullptr) return;
      inputs.push_back(std::move(converted));
    }
    call->TransformTo(EnumerableSetOp::Create(std::move(inputs),
                                              setop.set_kind(), setop.all(),
                                              setop.row_type()));
  }
};

class EnumerableValuesRule final : public ConverterRule {
 public:
  EnumerableValuesRule()
      : ConverterRule(Convention::Logical(), Convention::Enumerable()) {}

  std::string name() const override { return "EnumerableValuesRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogical(node) && dynamic_cast<const Values*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& values = static_cast<const Values&>(*call->rel());
    call->TransformTo(
        EnumerableValues::Create(values.row_type(), values.tuples()));
  }
};

class EnumerableWindowRule final : public ConverterRule {
 public:
  EnumerableWindowRule()
      : ConverterRule(Convention::Logical(), Convention::Enumerable()) {}

  std::string name() const override { return "EnumerableWindowRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogical(node) && dynamic_cast<const Window*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& window = static_cast<const Window&>(*call->rel());
    RelNodePtr input = call->Convert(window.input(0), EnumerableTraits());
    if (input == nullptr) return;
    call->TransformTo(EnumerableWindow::Create(std::move(input),
                                               window.groups(),
                                               window.row_type()));
  }
};

class EnumerableInterpreterRule final : public ConverterRule {
 public:
  explicit EnumerableInterpreterRule(const Convention* foreign)
      : ConverterRule(foreign, Convention::Enumerable()) {}

  std::string name() const override {
    return "EnumerableInterpreterRule(" + from()->name() + ")";
  }

  bool MatchesRoot(const RelNode& node) const override {
    return node.convention() == from();
  }

  void OnMatch(RelOptRuleCall* call) const override {
    call->TransformTo(EnumerableInterpreter::Create(call->rel()));
  }
};

}  // namespace

std::vector<RelOptRulePtr> EnumerableConverterRules() {
  return {
      std::make_shared<EnumerableTableScanRule>(),
      std::make_shared<EnumerableFilterRule>(),
      std::make_shared<EnumerableProjectRule>(),
      std::make_shared<EnumerableJoinRule>(),
      std::make_shared<EnumerableAggregateRule>(),
      std::make_shared<EnumerableSortRule>(),
      std::make_shared<EnumerableSetOpRule>(),
      std::make_shared<EnumerableValuesRule>(),
      std::make_shared<EnumerableWindowRule>(),
  };
}

RelOptRulePtr MakeEnumerableInterpreterRule(const Convention* foreign) {
  return std::make_shared<EnumerableInterpreterRule>(foreign);
}

}  // namespace calcite
