#ifndef CALCITE_ADAPTERS_CASSANDRA_CASSANDRA_ADAPTER_H_
#define CALCITE_ADAPTERS_CASSANDRA_CASSANDRA_ADAPTER_H_

#include <memory>
#include <string>
#include <vector>

#include "plan/rule.h"
#include "rel/core.h"
#include "schema/schema.h"

namespace calcite {

/// A simulated wide-column store: "partitions data by a subset of columns in
/// a table and then within each partition, sorts rows based on another
/// subset of columns" (§6). The adapter reproduces the paper's two-condition
/// sort push-down rule verbatim:
///   (1) the table has been previously filtered to a single partition, and
///   (2) the sorting of partitions has some common prefix with the required
///       sort.
class CassandraTable final : public MemTable {
 public:
  /// Stores `rows` grouped by partition and clustered within it, as
  /// Cassandra does.
  CassandraTable(RelDataTypePtr row_type, std::vector<Row> rows,
                 std::vector<int> partition_keys, RelCollation clustering);

  const std::vector<int>& partition_keys() const { return partition_keys_; }
  const RelCollation& clustering() const { return clustering_; }

 private:
  std::vector<int> partition_keys_;
  RelCollation clustering_;
};

class CassandraSchema final : public Schema {
 public:
  const Convention* ScanConvention() const override;
  std::vector<RelOptRulePtr> AdapterRules() const override;

  static const Convention* CassandraConvention();
};

/// Generates the CQL for a Cassandra-convention subtree (Table 2's target
/// language for this adapter).
Result<std::string> CassandraGenerateCql(const RelNodePtr& node);

class CassandraTableScan final : public TableScan {
 public:
  static RelNodePtr Create(const TableScan& scan);

  std::string op_name() const override { return "CassandraTableScan"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using TableScan::TableScan;
};

class CassandraFilter final : public Filter {
 public:
  /// `single_partition`: the condition pins every partition key with an
  /// equality — precondition (1) of the sort rule. `table` carries the
  /// partition/clustering metadata forward so downstream rules (the sort
  /// push-down) can check precondition (2) without reaching through memo
  /// placeholders.
  static RelNodePtr Create(RelNodePtr input, RexNodePtr condition,
                           bool single_partition,
                           std::shared_ptr<const CassandraTable> table);

  bool single_partition() const { return single_partition_; }
  const std::shared_ptr<const CassandraTable>& cassandra_table() const {
    return table_;
  }

  std::string op_name() const override { return "CassandraFilter"; }
  std::string DigestAttributes() const override;
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  std::optional<RelOptCost> SelfCost(MetadataQuery* mq) const override;

 private:
  CassandraFilter(RelTraitSet traits, RelDataTypePtr row_type,
                  RelNodePtr input, RexNodePtr condition,
                  bool single_partition,
                  std::shared_ptr<const CassandraTable> table)
      : Filter(std::move(traits), std::move(row_type), std::move(input),
               std::move(condition)),
        single_partition_(single_partition),
        table_(std::move(table)) {}

  bool single_partition_;
  std::shared_ptr<const CassandraTable> table_;
};

class CassandraSort final : public Sort {
 public:
  static RelNodePtr Create(RelNodePtr input, RelCollation collation);

  std::string op_name() const override { return "CassandraSort"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  /// Rows inside one partition are already stored in clustering order, so
  /// this sort is nearly free — that is why pushing it down wins.
  std::optional<RelOptCost> SelfCost(MetadataQuery* mq) const override;

 private:
  using Sort::Sort;
};

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_CASSANDRA_CASSANDRA_ADAPTER_H_
