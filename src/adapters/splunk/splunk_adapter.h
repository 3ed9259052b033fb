#ifndef CALCITE_ADAPTERS_SPLUNK_SPLUNK_ADAPTER_H_
#define CALCITE_ADAPTERS_SPLUNK_SPLUNK_ADAPTER_H_

#include <memory>
#include <string>
#include <vector>

#include "adapters/jdbc/jdbc_adapter.h"
#include "plan/rule.h"
#include "rel/core.h"
#include "schema/schema.h"

namespace calcite {

/// The Splunk adapter of Figure 2: a simulated log/event store queried with
/// SPL-like search strings. It supports filter push-down ("the WHERE clause
/// is pushed into splunk by an adapter-specific rule") and — the paper's
/// headline example — a join push-down that exploits "the fact that Splunk
/// can perform lookups into MySQL via ODBC": SplunkLookupJoin executes the
/// join inside the Splunk engine by issuing per-key SQL lookups against a
/// JDBC backend, instead of bulk-transferring both sides to a third engine.
class SplunkSchema final : public Schema {
 public:
  /// `lookup_targets`: JDBC engines this Splunk instance can reach via
  /// ODBC-style lookups (enables the Figure 2 join push-down rule).
  explicit SplunkSchema(std::vector<RemoteSqlEnginePtr> lookup_targets = {});

  const Convention* ScanConvention() const override;
  std::vector<RelOptRulePtr> AdapterRules() const override;

  static const Convention* SplunkConvention();

 private:
  std::vector<RemoteSqlEnginePtr> lookup_targets_;
};

/// Generates the SPL search string for a Splunk-convention subtree, e.g.
/// "search index=orders | where units > 25 | lookup products productId".
/// Used by tests and the Table 2 bench.
Result<std::string> SplunkGenerateSpl(const RelNodePtr& node);

/// Physical operators (exposed for tests).

class SplunkTableScan final : public TableScan {
 public:
  static RelNodePtr Create(const TableScan& scan);

  std::string op_name() const override { return "SplunkTableScan"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using TableScan::TableScan;
};

class SplunkFilter final : public Filter {
 public:
  static RelNodePtr Create(RelNodePtr input, RexNodePtr condition);

  std::string op_name() const override { return "SplunkFilter"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

  /// Filtering inside the engine avoids shipping non-matching events.
  std::optional<RelOptCost> SelfCost(MetadataQuery* mq) const override;

 private:
  using Filter::Filter;
};

/// The Figure 2 star: an inner equi-join executed inside Splunk by looking
/// up each event's key in a remote SQL engine. Left input: a
/// Splunk-convention subtree. Right input: a JDBC-convention subtree
/// belonging to `engine`.
class SplunkLookupJoin final : public Join {
 public:
  static RelNodePtr Create(RelNodePtr left, RelNodePtr right,
                           RexNodePtr condition, RelDataTypePtr row_type,
                           RemoteSqlEnginePtr engine);

  std::string op_name() const override { return "SplunkLookupJoin"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

  /// Per-key lookups avoid bulk transfer of the right side: cost scales
  /// with the left (event) side and the number of distinct keys.
  std::optional<RelOptCost> SelfCost(MetadataQuery* mq) const override;

  const RemoteSqlEnginePtr& engine() const { return engine_; }

 private:
  SplunkLookupJoin(RelTraitSet traits, RelDataTypePtr row_type,
                   RelNodePtr left, RelNodePtr right, RexNodePtr condition,
                   RemoteSqlEnginePtr engine)
      : Join(std::move(traits), std::move(row_type), std::move(left),
             std::move(right), std::move(condition), JoinType::kInner),
        engine_(std::move(engine)) {}

  RemoteSqlEnginePtr engine_;
};

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_SPLUNK_SPLUNK_ADAPTER_H_
