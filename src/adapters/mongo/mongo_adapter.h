#ifndef CALCITE_ADAPTERS_MONGO_MONGO_ADAPTER_H_
#define CALCITE_ADAPTERS_MONGO_MONGO_ADAPTER_H_

#include <memory>
#include <string>
#include <vector>

#include "plan/rule.h"
#include "rel/core.h"
#include "schema/schema.h"
#include "util/json.h"

namespace calcite {

/// A simulated document store (§7.1): each collection is "a table ... with a
/// single column named _MAP: a map from document identifiers to their data".
/// Semi-structured values are reached with the `[]` ITEM operator and views
/// expose them relationally:
///
///   SELECT CAST(_MAP['city'] AS varchar(20)) AS city, ... FROM mongo.zips
class MongoTable final : public Table {
 public:
  explicit MongoTable(std::vector<JsonValue> documents);

  RelDataTypePtr GetRowType(const TypeFactory& factory) const override;
  TableStats GetStatistic() const override;
  Result<std::vector<Row>> Scan() const override;

  const std::vector<JsonValue>& documents() const { return documents_; }

 private:
  std::vector<JsonValue> documents_;
};

class MongoSchema final : public Schema {
 public:
  const Convention* ScanConvention() const override;
  std::vector<RelOptRulePtr> AdapterRules() const override;

  static const Convention* MongoConvention();
};

/// Generates the JSON find-query this subtree ships to the document store
/// (Table 2: MongoDB's target language is JSON-over-Java driver calls).
Result<std::string> MongoGenerateQuery(const RelNodePtr& node);

class MongoTableScan final : public TableScan {
 public:
  static RelNodePtr Create(const TableScan& scan);

  std::string op_name() const override { return "MongoTableScan"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using TableScan::TableScan;
};

/// A filter pushed into the document store as a find() query. Only
/// conjunctions of `_MAP['field'] <op> literal` predicates are pushable;
/// the adapter rule leaves anything else client-side.
class MongoFilter final : public Filter {
 public:
  static RelNodePtr Create(RelNodePtr input, RexNodePtr condition,
                           JsonValue find_query);

  const JsonValue& find_query() const { return find_query_; }

  std::string op_name() const override { return "MongoFilter"; }
  std::string DigestAttributes() const override;
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  std::optional<RelOptCost> SelfCost(MetadataQuery* mq) const override;

 private:
  MongoFilter(RelTraitSet traits, RelDataTypePtr row_type, RelNodePtr input,
              RexNodePtr condition, JsonValue find_query)
      : Filter(std::move(traits), std::move(row_type), std::move(input),
               std::move(condition)),
        find_query_(std::move(find_query)) {}

  JsonValue find_query_;
};

/// Converts a JSON document into a runtime Value (objects become MAPs,
/// arrays ARRAYs, numbers DOUBLEs).
Value JsonToValue(const JsonValue& json);

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_MONGO_MONGO_ADAPTER_H_
