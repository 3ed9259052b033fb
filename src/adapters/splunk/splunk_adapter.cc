#include "adapters/splunk/splunk_adapter.h"

#include <set>

#include "adapters/enumerable/enumerable_rels.h"
#include "adapters/jdbc/jdbc_rels.h"
#include "rex/rex_interpreter.h"
#include "rex/rex_util.h"
#include "sql/rel_to_sql.h"

namespace calcite {

const Convention* SplunkSchema::SplunkConvention() {
  static const Convention* kConvention = new Convention("SPLUNK", 0.9);
  return kConvention;
}

SplunkSchema::SplunkSchema(std::vector<RemoteSqlEnginePtr> lookup_targets)
    : lookup_targets_(std::move(lookup_targets)) {}

const Convention* SplunkSchema::ScanConvention() const {
  return SplunkConvention();
}

// ------------------------------- operators ---------------------------------

RelNodePtr SplunkTableScan::Create(const TableScan& scan) {
  return RelNodePtr(new SplunkTableScan(
      RelTraitSet(SplunkSchema::SplunkConvention()), scan.row_type(),
      scan.table(), scan.qualified_name(), scan.table_convention()));
}

RelNodePtr SplunkTableScan::Copy(RelTraitSet traits,
                                 std::vector<RelNodePtr> inputs) const {
  (void)inputs;
  return RelNodePtr(new SplunkTableScan(std::move(traits), row_type(), table_,
                                        qualified_name_, table_convention_));
}

Result<RowBatchPuller> SplunkTableScan::ExecuteBatched(
    const ExecOptions& opts) const {
  return ChunkResult(table_->Scan(), opts);
}

RelNodePtr SplunkFilter::Create(RelNodePtr input, RexNodePtr condition) {
  RelDataTypePtr row_type = input->row_type();
  return RelNodePtr(new SplunkFilter(
      RelTraitSet(SplunkSchema::SplunkConvention()), std::move(row_type),
      std::move(input), std::move(condition)));
}

RelNodePtr SplunkFilter::Copy(RelTraitSet traits,
                              std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new SplunkFilter(std::move(traits), row_type(),
                                     std::move(inputs[0]), condition_));
}

Result<RowBatchPuller> SplunkFilter::ExecuteBatched(
    const ExecOptions& opts) const {
  auto rows = input(0)->Execute(opts);
  if (!rows.ok()) return rows.status();
  return ChunkResult(
      RexInterpreter::FilterRows(condition_, std::move(rows).value()), opts);
}

std::optional<RelOptCost> SplunkFilter::SelfCost(MetadataQuery* mq) const {
  double input_rows = mq->RowCount(input(0));
  // Index-assisted in-engine search: cheaper than a client-side scan+filter.
  return RelOptCost(mq->RowCount(shared_from_this()), input_rows * 0.5, 0);
}

RelNodePtr SplunkLookupJoin::Create(RelNodePtr left, RelNodePtr right,
                                    RexNodePtr condition,
                                    RelDataTypePtr row_type,
                                    RemoteSqlEnginePtr engine) {
  return RelNodePtr(new SplunkLookupJoin(
      RelTraitSet(SplunkSchema::SplunkConvention()), std::move(row_type),
      std::move(left), std::move(right), std::move(condition),
      std::move(engine)));
}

RelNodePtr SplunkLookupJoin::Copy(RelTraitSet traits,
                                  std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new SplunkLookupJoin(std::move(traits), row_type(),
                                         std::move(inputs[0]),
                                         std::move(inputs[1]), condition_,
                                         engine_));
}

std::optional<RelOptCost> SplunkLookupJoin::SelfCost(MetadataQuery* mq) const {
  double left_rows = mq->RowCount(input(0));
  // One remote point-lookup per distinct key; assume modest key diversity.
  double lookups = std::max(1.0, left_rows * 0.3);
  return RelOptCost(left_rows, left_rows * 0.5, lookups * 0.2);
}

Result<RowBatchPuller> SplunkLookupJoin::ExecuteBatched(
    const ExecOptions& opts) const {
  auto left_rows = input(0)->Execute(opts);
  if (!left_rows.ok()) return left_rows.status();

  std::vector<std::pair<int, int>> keys;
  std::vector<RexNodePtr> remaining;
  if (!AnalyzeEquiKeys(&keys, &remaining) || keys.size() != 1) {
    return Status::PlanError(
        "SplunkLookupJoin requires a single-column equi key");
  }
  int left_key = keys[0].first;
  int right_key = keys[0].second;

  // Render the right subtree once as SQL; per distinct key we wrap it with a
  // point predicate — the ODBC-lookup simulation.
  RelToSqlConverter converter(engine_->dialect());
  auto right_sql = converter.Convert(input(1));
  if (!right_sql.ok()) return right_sql.status();
  const std::string& right_key_name =
      input(1)->row_type()->fields()[static_cast<size_t>(right_key)].name;

  std::map<Value, std::vector<Row>> lookup_cache;
  std::vector<Row> out;
  for (const Row& lrow : left_rows.value()) {
    const Value& key = lrow[static_cast<size_t>(left_key)];
    if (key.IsNull()) continue;
    auto it = lookup_cache.find(key);
    if (it == lookup_cache.end()) {
      std::string key_text = key.is_string()
                                 ? engine_->dialect().QuoteString(key.AsString())
                                 : key.ToString();
      std::string sql = "SELECT * FROM (" + right_sql.value() + ") AS lk " +
                        "WHERE " +
                        engine_->dialect().QuoteIdentifier(right_key_name) +
                        " = " + key_text;
      auto rows = engine_->ExecuteSql(sql);
      if (!rows.ok()) return rows.status();
      it = lookup_cache.emplace(key, std::move(rows).value()).first;
    }
    for (const Row& rrow : it->second) {
      Row combined = ConcatRows(lrow, rrow);
      bool pass = true;
      for (const RexNodePtr& pred : remaining) {
        auto ok = RexInterpreter::EvalPredicate(pred, combined);
        if (!ok.ok()) return ok.status();
        if (!ok.value()) {
          pass = false;
          break;
        }
      }
      if (pass) out.push_back(std::move(combined));
    }
  }
  return ChunkResult(std::move(out), opts);
}

// --------------------------------- rules -----------------------------------

namespace {

class SplunkTableScanRule final : public ConverterRule {
 public:
  SplunkTableScanRule()
      : ConverterRule(Convention::Logical(),
                      SplunkSchema::SplunkConvention()) {}

  std::string name() const override { return "SplunkTableScanRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    if (node.convention() != Convention::Logical()) return false;
    const auto* scan = dynamic_cast<const TableScan*>(&node);
    return scan != nullptr && scan->table_convention() == to();
  }

  void OnMatch(RelOptRuleCall* call) const override {
    call->TransformTo(
        SplunkTableScan::Create(static_cast<const TableScan&>(*call->rel())));
  }
};

class SplunkFilterRule final : public ConverterRule {
 public:
  SplunkFilterRule()
      : ConverterRule(Convention::Logical(),
                      SplunkSchema::SplunkConvention()) {}

  std::string name() const override { return "SplunkFilterRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return node.convention() == Convention::Logical() &&
           dynamic_cast<const Filter*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& filter = static_cast<const Filter&>(*call->rel());
    RelNodePtr input = call->Convert(filter.input(0), RelTraitSet(to()));
    if (input == nullptr) return;
    call->TransformTo(
        SplunkFilter::Create(std::move(input), filter.condition()));
  }
};

/// The Figure 2 rule: "exploiting the fact that Splunk can perform lookups
/// into MySQL via ODBC, a planner rule pushes the join through the
/// splunk-to-spark converter, and the join is now in splunk convention,
/// running inside the Splunk engine."
class SplunkLookupJoinRule final : public ConverterRule {
 public:
  explicit SplunkLookupJoinRule(RemoteSqlEnginePtr target)
      : ConverterRule(Convention::Logical(),
                      SplunkSchema::SplunkConvention()),
        target_(std::move(target)) {}

  std::string name() const override {
    return "SplunkLookupJoinRule(" + target_->name() + ")";
  }

  bool MatchesRoot(const RelNode& node) const override {
    const auto* join = dynamic_cast<const Join*>(&node);
    return node.convention() == Convention::Logical() && join != nullptr &&
           join->join_type() == JoinType::kInner;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& join = static_cast<const Join&>(*call->rel());
    std::vector<std::pair<int, int>> keys;
    std::vector<RexNodePtr> remaining;
    if (!join.AnalyzeEquiKeys(&keys, &remaining) || keys.size() != 1) return;

    // Left must be expressible in Splunk; right in the lookup target's
    // JDBC convention.
    const Convention* jdbc = nullptr;
    {
      // The target's convention is interned by JdbcSchema; recover it
      // through a throwaway schema handle.
      static std::map<std::string, const Convention*>* cache =
          new std::map<std::string, const Convention*>();
      auto it = cache->find(target_->name());
      if (it == cache->end()) {
        JdbcSchema probe(target_);
        it = cache->emplace(target_->name(), probe.ScanConvention()).first;
      }
      jdbc = it->second;
    }
    RelNodePtr left = call->Convert(join.input(0), RelTraitSet(to()));
    RelNodePtr right = call->Convert(join.input(1), RelTraitSet(jdbc));
    if (left == nullptr || right == nullptr) return;
    call->TransformTo(SplunkLookupJoin::Create(std::move(left),
                                               std::move(right),
                                               join.condition(),
                                               join.row_type(), target_));
  }

 private:
  RemoteSqlEnginePtr target_;
};

}  // namespace

std::vector<RelOptRulePtr> SplunkSchema::AdapterRules() const {
  std::vector<RelOptRulePtr> rules = {
      std::make_shared<SplunkTableScanRule>(),
      std::make_shared<SplunkFilterRule>(),
  };
  for (const RemoteSqlEnginePtr& target : lookup_targets_) {
    rules.push_back(std::make_shared<SplunkLookupJoinRule>(target));
  }
  return rules;
}

// ---------------------------- SPL generation -------------------------------

namespace {

Result<std::string> SplExpr(const RexNodePtr& rex,
                            const std::vector<std::string>& fields) {
  if (const RexInputRef* ref = AsInputRef(rex)) {
    return fields[static_cast<size_t>(ref->index())];
  }
  if (const RexLiteral* lit = AsLiteral(rex)) {
    if (lit->value().is_string()) return "\"" + lit->value().AsString() + "\"";
    return lit->value().ToString();
  }
  const RexCall* call = AsCall(rex);
  if (call == nullptr) return Status::Unsupported("cannot render SPL");
  std::vector<std::string> operands;
  for (const RexNodePtr& operand : call->operands()) {
    auto sub = SplExpr(operand, fields);
    if (!sub.ok()) return sub;
    operands.push_back(std::move(sub).value());
  }
  switch (call->op()) {
    case OpKind::kAnd: {
      std::string out = operands[0];
      for (size_t i = 1; i < operands.size(); ++i) out += " " + operands[i];
      return out;  // SPL search terms are implicitly conjunctive
    }
    case OpKind::kEquals:
      return operands[0] + "=" + operands[1];
    case OpKind::kNotEquals:
      return operands[0] + "!=" + operands[1];
    case OpKind::kGreaterThan:
      return operands[0] + ">" + operands[1];
    case OpKind::kGreaterThanOrEqual:
      return operands[0] + ">=" + operands[1];
    case OpKind::kLessThan:
      return operands[0] + "<" + operands[1];
    case OpKind::kLessThanOrEqual:
      return operands[0] + "<=" + operands[1];
    case OpKind::kIsNotNull:
      return operands[0] + "=*";
    default:
      return Status::Unsupported(std::string("operator ") +
                                 OpKindName(call->op()) + " in SPL");
  }
}

}  // namespace

Result<std::string> SplunkGenerateSpl(const RelNodePtr& node) {
  if (const auto* scan = dynamic_cast<const SplunkTableScan*>(node.get())) {
    return "search index=" + scan->qualified_name().back();
  }
  if (const auto* filter = dynamic_cast<const SplunkFilter*>(node.get())) {
    auto base = SplunkGenerateSpl(node->input(0));
    if (!base.ok()) return base;
    std::vector<std::string> fields;
    for (const RelDataTypeField& f : filter->input(0)->row_type()->fields()) {
      fields.push_back(f.name);
    }
    auto expr = SplExpr(filter->condition(), fields);
    if (!expr.ok()) return expr;
    return base.value() + " | search " + expr.value();
  }
  if (const auto* join = dynamic_cast<const SplunkLookupJoin*>(node.get())) {
    auto base = SplunkGenerateSpl(node->input(0));
    if (!base.ok()) return base;
    std::vector<std::pair<int, int>> keys;
    std::vector<RexNodePtr> remaining;
    std::string key_name = "?";
    std::vector<std::pair<int, int>> kv;
    if (join->AnalyzeEquiKeys(&kv, &remaining) && kv.size() == 1) {
      key_name = join->input(0)
                     ->row_type()
                     ->fields()[static_cast<size_t>(kv[0].first)]
                     .name;
    }
    std::string table = "remote";
    if (const auto* scan =
            dynamic_cast<const TableScan*>(join->input(1).get())) {
      table = scan->qualified_name().back();
    }
    return base.value() + " | lookup " + table + " " + key_name;
  }
  return Status::Unsupported("cannot render SPL for " + node->op_name());
}

}  // namespace calcite
