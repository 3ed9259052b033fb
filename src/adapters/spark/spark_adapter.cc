#include "adapters/spark/spark_adapter.h"

#include "adapters/enumerable/enumerable_rels.h"
#include "metadata/metadata.h"

namespace calcite {

const Convention* SparkAdapter::SparkConvention() {
  // External cluster engine: per-operator overhead above in-process work.
  static const Convention* kConvention = new Convention("SPARK", 1.2);
  return kConvention;
}

RelNodePtr SparkDataTransfer::Create(RelNodePtr input) {
  RelDataTypePtr row_type = input->row_type();
  return RelNodePtr(new SparkDataTransfer(
      RelTraitSet(SparkAdapter::SparkConvention()), std::move(row_type),
      std::move(input)));
}

RelNodePtr SparkDataTransfer::Copy(RelTraitSet traits,
                                   std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new SparkDataTransfer(std::move(traits), row_type(),
                                          std::move(inputs[0])));
}

Result<RowBatchPuller> SparkDataTransfer::ExecuteBatched(
    const ExecOptions& opts) const {
  // The RDD load materializes the source engine's whole result.
  return ChunkResult(input(0)->Execute(opts), opts);
}

std::optional<RelOptCost> SparkDataTransfer::SelfCost(
    MetadataQuery* mq) const {
  double rows = mq->RowCount(input(0));
  // Serialization + shuffle into the cluster: heavier than a plain
  // same-process converter.
  return RelOptCost(rows, rows * 0.2, rows * 1.5);
}

RelNodePtr SparkHashJoin::Create(RelNodePtr left, RelNodePtr right,
                                 RexNodePtr condition, JoinType join_type,
                                 RelDataTypePtr row_type) {
  return RelNodePtr(new SparkHashJoin(
      RelTraitSet(SparkAdapter::SparkConvention()), std::move(row_type),
      std::move(left), std::move(right), std::move(condition), join_type));
}

RelNodePtr SparkHashJoin::Copy(RelTraitSet traits,
                               std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new SparkHashJoin(std::move(traits), row_type(),
                                      std::move(inputs[0]),
                                      std::move(inputs[1]), condition_,
                                      join_type_));
}

Result<RowBatchPuller> SparkHashJoin::ExecuteBatched(
    const ExecOptions& opts) const {
  // Delegate to the enumerable hash-join algorithm over the transferred
  // inputs (the simulation runs in-process).
  RelNodePtr as_enumerable = EnumerableHashJoin::Create(
      input(0), input(1), condition_, join_type_, row_type());
  return as_enumerable->ExecuteBatched(opts);
}

namespace {

class SparkTransferRule final : public ConverterRule {
 public:
  explicit SparkTransferRule(const Convention* source)
      : ConverterRule(source, SparkAdapter::SparkConvention()) {}

  std::string name() const override {
    return "SparkTransferRule(" + from()->name() + ")";
  }

  bool MatchesRoot(const RelNode& node) const override {
    return node.convention() == from();
  }

  void OnMatch(RelOptRuleCall* call) const override {
    call->TransformTo(SparkDataTransfer::Create(call->rel()));
  }
};

class SparkJoinRule final : public ConverterRule {
 public:
  SparkJoinRule()
      : ConverterRule(Convention::Logical(),
                      SparkAdapter::SparkConvention()) {}

  std::string name() const override { return "SparkJoinRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    const auto* join = dynamic_cast<const Join*>(&node);
    return node.convention() == Convention::Logical() && join != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& join = static_cast<const Join&>(*call->rel());
    std::vector<std::pair<int, int>> keys;
    std::vector<RexNodePtr> remaining;
    if (!join.AnalyzeEquiKeys(&keys, &remaining)) return;
    RelNodePtr left = call->Convert(join.input(0), RelTraitSet(to()));
    RelNodePtr right = call->Convert(join.input(1), RelTraitSet(to()));
    if (left == nullptr || right == nullptr) return;
    call->TransformTo(SparkHashJoin::Create(std::move(left), std::move(right),
                                            join.condition(),
                                            join.join_type(),
                                            join.row_type()));
  }
};

}  // namespace

std::vector<RelOptRulePtr> SparkAdapter::Rules(
    std::vector<const Convention*> sources) {
  std::vector<RelOptRulePtr> rules;
  rules.push_back(std::make_shared<SparkJoinRule>());
  for (const Convention* source : sources) {
    rules.push_back(std::make_shared<SparkTransferRule>(source));
  }
  return rules;
}

Result<std::string> SparkGenerateRdd(const RelNodePtr& node) {
  if (const auto* join = dynamic_cast<const SparkHashJoin*>(node.get())) {
    std::vector<std::pair<int, int>> keys;
    std::vector<RexNodePtr> remaining;
    join->AnalyzeEquiKeys(&keys, &remaining);
    std::string left = "left";
    std::string right = "right";
    return left + ".keyBy(r -> r.get(" + std::to_string(keys[0].first) +
           ")).join(" + right + ".keyBy(r -> r.get(" +
           std::to_string(keys[0].second) + "))).values()";
  }
  if (dynamic_cast<const SparkDataTransfer*>(node.get()) != nullptr) {
    return std::string("sc.parallelize(fetchFrom(") +
           node->input(0)->convention()->name() + "))";
  }
  return Status::Unsupported("cannot render RDD code for " +
                             node->op_name());
}

}  // namespace calcite
