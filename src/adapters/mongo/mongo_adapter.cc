#include "adapters/mongo/mongo_adapter.h"

#include "metadata/metadata.h"
#include "rex/rex_interpreter.h"
#include "rex/rex_util.h"

namespace calcite {

Value JsonToValue(const JsonValue& json) {
  switch (json.kind()) {
    case JsonValue::Kind::kNull:
      return Value::Null();
    case JsonValue::Kind::kBool:
      return Value::Bool(json.as_bool());
    case JsonValue::Kind::kNumber:
      return Value::Double(json.as_number());
    case JsonValue::Kind::kString:
      return Value::String(json.as_string());
    case JsonValue::Kind::kArray: {
      std::vector<Value> elems;
      for (const JsonValue& elem : json.as_array()) {
        elems.push_back(JsonToValue(elem));
      }
      return Value::Array(std::move(elems));
    }
    case JsonValue::Kind::kObject: {
      std::vector<std::pair<Value, Value>> entries;
      for (const auto& [key, value] : json.as_object()) {
        entries.push_back({Value::String(key), JsonToValue(value)});
      }
      return Value::Map(std::move(entries));
    }
  }
  return Value::Null();
}

MongoTable::MongoTable(std::vector<JsonValue> documents)
    : documents_(std::move(documents)) {}

RelDataTypePtr MongoTable::GetRowType(const TypeFactory& factory) const {
  RelDataTypePtr key = factory.CreateSqlType(SqlTypeName::kVarchar, 64);
  RelDataTypePtr value = factory.CreateSqlType(SqlTypeName::kAny, true);
  RelDataTypePtr map = factory.CreateMapType(key, value, false);
  return factory.CreateStructType({"_MAP"}, {map});
}

TableStats MongoTable::GetStatistic() const {
  TableStats stat;
  stat.row_count = static_cast<double>(documents_.size());
  return stat;
}

Result<std::vector<Row>> MongoTable::Scan() const {
  std::vector<Row> rows;
  rows.reserve(documents_.size());
  for (const JsonValue& doc : documents_) {
    rows.push_back({JsonToValue(doc)});
  }
  return rows;
}

const Convention* MongoSchema::MongoConvention() {
  static const Convention* kConvention = new Convention("MONGO", 0.9);
  return kConvention;
}

const Convention* MongoSchema::ScanConvention() const {
  return MongoConvention();
}

// ------------------------------- operators ---------------------------------

RelNodePtr MongoTableScan::Create(const TableScan& scan) {
  return RelNodePtr(new MongoTableScan(
      RelTraitSet(MongoSchema::MongoConvention()), scan.row_type(),
      scan.table(), scan.qualified_name(), scan.table_convention()));
}

RelNodePtr MongoTableScan::Copy(RelTraitSet traits,
                                std::vector<RelNodePtr> inputs) const {
  (void)inputs;
  return RelNodePtr(new MongoTableScan(std::move(traits), row_type(), table_,
                                       qualified_name_, table_convention_));
}

Result<RowBatchPuller> MongoTableScan::ExecuteBatched(
    const ExecOptions& opts) const {
  return ChunkResult(table_->Scan(), opts);
}

RelNodePtr MongoFilter::Create(RelNodePtr input, RexNodePtr condition,
                               JsonValue find_query) {
  RelDataTypePtr row_type = input->row_type();
  return RelNodePtr(new MongoFilter(
      RelTraitSet(MongoSchema::MongoConvention()), std::move(row_type),
      std::move(input), std::move(condition), std::move(find_query)));
}

std::string MongoFilter::DigestAttributes() const {
  return Filter::DigestAttributes() + ", find=" + find_query_.Dump();
}

RelNodePtr MongoFilter::Copy(RelTraitSet traits,
                             std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new MongoFilter(std::move(traits), row_type(),
                                    std::move(inputs[0]), condition_,
                                    find_query_));
}

Result<RowBatchPuller> MongoFilter::ExecuteBatched(
    const ExecOptions& opts) const {
  auto rows = input(0)->Execute(opts);
  if (!rows.ok()) return rows.status();
  return ChunkResult(
      RexInterpreter::FilterRows(condition_, std::move(rows).value()), opts);
}

std::optional<RelOptCost> MongoFilter::SelfCost(MetadataQuery* mq) const {
  double input_rows = mq->RowCount(input(0));
  // Index-eligible find() beats shipping every document to the client.
  return RelOptCost(mq->RowCount(shared_from_this()), input_rows * 0.4, 0);
}

// --------------------------------- rules -----------------------------------

namespace {

/// Tries to express a conjunct as one find-query field: `_MAP['f'] = lit`
/// or a comparison; returns false if not pushable.
bool ConjunctToFind(const RexNodePtr& conjunct, JsonValue* find) {
  const RexCall* call = AsCall(conjunct);
  if (call == nullptr || !IsComparison(call->op())) return false;
  const RexCall* item = AsCall(call->operand(0));
  const RexLiteral* literal = AsLiteral(call->operand(1));
  if (item == nullptr || item->op() != OpKind::kItem || literal == nullptr) {
    return false;
  }
  const RexLiteral* key = AsLiteral(item->operand(1));
  if (key == nullptr || !key->value().is_string()) return false;

  JsonValue value;
  const Value& v = literal->value();
  if (v.is_string()) {
    value = JsonValue(v.AsString());
  } else if (v.is_numeric()) {
    value = JsonValue(v.AsDouble());
  } else if (v.is_bool()) {
    value = JsonValue(v.AsBool());
  } else {
    return false;
  }
  const char* mongo_op = nullptr;
  switch (call->op()) {
    case OpKind::kEquals:
      mongo_op = nullptr;  // direct {field: value}
      break;
    case OpKind::kNotEquals:
      mongo_op = "$ne";
      break;
    case OpKind::kLessThan:
      mongo_op = "$lt";
      break;
    case OpKind::kLessThanOrEqual:
      mongo_op = "$lte";
      break;
    case OpKind::kGreaterThan:
      mongo_op = "$gt";
      break;
    case OpKind::kGreaterThanOrEqual:
      mongo_op = "$gte";
      break;
    default:
      return false;
  }
  if (mongo_op == nullptr) {
    find->Set(key->value().AsString(), std::move(value));
  } else {
    JsonValue op_obj = JsonValue::Object();
    op_obj.Set(mongo_op, std::move(value));
    find->Set(key->value().AsString(), std::move(op_obj));
  }
  return true;
}

class MongoTableScanRule final : public ConverterRule {
 public:
  MongoTableScanRule()
      : ConverterRule(Convention::Logical(),
                      MongoSchema::MongoConvention()) {}

  std::string name() const override { return "MongoTableScanRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    if (node.convention() != Convention::Logical()) return false;
    const auto* scan = dynamic_cast<const TableScan*>(&node);
    return scan != nullptr && scan->table_convention() == to();
  }

  void OnMatch(RelOptRuleCall* call) const override {
    call->TransformTo(
        MongoTableScan::Create(static_cast<const TableScan&>(*call->rel())));
  }
};

class MongoFilterRule final : public ConverterRule {
 public:
  MongoFilterRule()
      : ConverterRule(Convention::Logical(),
                      MongoSchema::MongoConvention()) {}

  std::string name() const override { return "MongoFilterRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return node.convention() == Convention::Logical() &&
           dynamic_cast<const Filter*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& filter = static_cast<const Filter&>(*call->rel());
    // Every conjunct must be expressible as a find() field to push the
    // whole filter; otherwise it stays client-side.
    JsonValue find = JsonValue::Object();
    for (const RexNodePtr& conjunct :
         RexUtil::FlattenAnd(filter.condition())) {
      if (!ConjunctToFind(conjunct, &find)) return;
    }
    RelNodePtr input = call->Convert(filter.input(0), RelTraitSet(to()));
    if (input == nullptr) return;
    call->TransformTo(MongoFilter::Create(std::move(input),
                                          filter.condition(),
                                          std::move(find)));
  }
};

}  // namespace

std::vector<RelOptRulePtr> MongoSchema::AdapterRules() const {
  return {
      std::make_shared<MongoTableScanRule>(),
      std::make_shared<MongoFilterRule>(),
  };
}

Result<std::string> MongoGenerateQuery(const RelNodePtr& node) {
  if (const auto* scan = dynamic_cast<const MongoTableScan*>(node.get())) {
    return "db." + scan->qualified_name().back() + ".find({})";
  }
  if (const auto* filter = dynamic_cast<const MongoFilter*>(node.get())) {
    const auto* scan =
        dynamic_cast<const MongoTableScan*>(filter->input(0).get());
    std::string collection =
        scan != nullptr ? scan->qualified_name().back() : "collection";
    return "db." + collection + ".find(" + filter->find_query().Dump() + ")";
  }
  return Status::Unsupported("cannot render find() for " + node->op_name());
}

}  // namespace calcite
