#ifndef CALCITE_ADAPTERS_SPARK_SPARK_ADAPTER_H_
#define CALCITE_ADAPTERS_SPARK_SPARK_ADAPTER_H_

#include <string>
#include <vector>

#include "plan/rule.h"
#include "rel/core.h"

namespace calcite {

/// A simulated external Spark execution engine — Figure 2's "one possible
/// implementation is to use Apache Spark as an external engine: the join is
/// converted to spark convention, and its inputs are converters from
/// jdbc-mysql and splunk to spark convention."
///
/// Spark owns no tables; it receives data from other conventions through
/// SparkDataTransfer converters (which the cost model charges per row — the
/// cluster round-trip) and executes joins on the transferred RDDs. This is
/// deliberately the *losing* alternative of the Figure 2 plan race whenever
/// the Splunk lookup join is available.
class SparkAdapter {
 public:
  static const Convention* SparkConvention();

  /// The rules: SparkJoinRule (logical join → SparkHashJoin) and transfer
  /// converter rules from the given foreign conventions.
  static std::vector<RelOptRulePtr> Rules(
      std::vector<const Convention*> sources);
};

/// Moves rows from another engine into the Spark cluster (an RDD load).
class SparkDataTransfer final : public Converter {
 public:
  static RelNodePtr Create(RelNodePtr input);

  std::string op_name() const override { return "SparkDataTransfer"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  std::optional<RelOptCost> SelfCost(MetadataQuery* mq) const override;

 private:
  using Converter::Converter;
};

class SparkHashJoin final : public Join {
 public:
  static RelNodePtr Create(RelNodePtr left, RelNodePtr right,
                           RexNodePtr condition, JoinType join_type,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "SparkHashJoin"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Join::Join;
};

/// Renders the pseudo Java-RDD program for a Spark subtree (Table 2: the
/// Spark adapter's target language is the Java RDD API).
Result<std::string> SparkGenerateRdd(const RelNodePtr& node);

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_SPARK_SPARK_ADAPTER_H_
