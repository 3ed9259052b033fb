#include "adapters/jdbc/jdbc_adapter.h"

#include "adapters/jdbc/jdbc_rels.h"
#include "sql/rel_to_sql.h"
#include "tools/frameworks.h"

namespace calcite {

RemoteSqlEngine::RemoteSqlEngine(std::string name, const SqlDialect& dialect,
                                 SchemaPtr tables)
    : name_(std::move(name)), dialect_(&dialect), tables_(std::move(tables)) {}

Result<std::vector<Row>> RemoteSqlEngine::ExecuteSql(const std::string& sql) {
  statement_log_.push_back(sql);
  // The embedded backend is a full instance of this framework with a plain
  // enumerable schema — the "remote database".
  Connection connection{Connection::Config{tables_}};
  auto result = connection.Query(sql);
  if (!result.ok()) {
    return Status::RuntimeError("remote engine '" + name_ +
                                "' rejected query: " +
                                result.status().message() + " [" + sql + "]");
  }
  return std::move(result).value().rows;
}

Result<RowBatchPuller> JdbcRel::ExecuteViaSql(const RelNode& self,
                                              const ExecOptions& opts) const {
  RelToSqlConverter converter(engine_->dialect());
  // shared_from_this is safe: nodes are always held in shared_ptr.
  auto sql = converter.Convert(self.shared_from_this());
  if (!sql.ok()) return sql.status();
  return ChunkResult(engine_->ExecuteSql(sql.value()), opts);
}

Result<std::string> JdbcGenerateSql(const RelNodePtr& node) {
  const auto* jdbc = dynamic_cast<const JdbcRel*>(node.get());
  if (jdbc == nullptr) {
    return Status::InvalidArgument("node is not a JDBC operator");
  }
  RelToSqlConverter converter(jdbc->engine()->dialect());
  return converter.Convert(node);
}

namespace {

/// One Convention instance per backend engine, interned by name.
const Convention* JdbcConvention(const std::string& engine_name) {
  static std::map<std::string, const Convention*>* conventions =
      new std::map<std::string, const Convention*>();
  auto it = conventions->find(engine_name);
  if (it != conventions->end()) return it->second;
  const auto* convention = new Convention("JDBC." + engine_name, 1.0);
  (*conventions)[engine_name] = convention;
  return convention;
}

bool SameJdbcConvention(const RelNode& node, const Convention* convention) {
  return node.convention() == convention;
}

class JdbcTableScanRule final : public ConverterRule {
 public:
  JdbcTableScanRule(RemoteSqlEnginePtr engine, const Convention* convention)
      : ConverterRule(Convention::Logical(), convention),
        engine_(std::move(engine)) {}

  std::string name() const override {
    return "JdbcTableScanRule(" + engine_->name() + ")";
  }

  bool MatchesRoot(const RelNode& node) const override {
    if (node.convention() != Convention::Logical()) return false;
    const auto* scan = dynamic_cast<const TableScan*>(&node);
    return scan != nullptr && scan->table_convention() == to();
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& scan = static_cast<const TableScan&>(*call->rel());
    call->TransformTo(JdbcTableScan::Create(scan, engine_, to()));
  }

 private:
  RemoteSqlEnginePtr engine_;
};

class JdbcFilterRule final : public ConverterRule {
 public:
  JdbcFilterRule(RemoteSqlEnginePtr engine, const Convention* convention)
      : ConverterRule(Convention::Logical(), convention),
        engine_(std::move(engine)) {}

  std::string name() const override {
    return "JdbcFilterRule(" + engine_->name() + ")";
  }

  bool MatchesRoot(const RelNode& node) const override {
    return node.convention() == Convention::Logical() &&
           dynamic_cast<const Filter*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& filter = static_cast<const Filter&>(*call->rel());
    RelNodePtr input = call->Convert(filter.input(0), RelTraitSet(to()));
    if (input == nullptr) return;
    call->TransformTo(
        JdbcFilter::Create(std::move(input), filter.condition(), engine_,
                           to()));
  }

 private:
  RemoteSqlEnginePtr engine_;
};

class JdbcProjectRule final : public ConverterRule {
 public:
  JdbcProjectRule(RemoteSqlEnginePtr engine, const Convention* convention)
      : ConverterRule(Convention::Logical(), convention),
        engine_(std::move(engine)) {}

  std::string name() const override {
    return "JdbcProjectRule(" + engine_->name() + ")";
  }

  bool MatchesRoot(const RelNode& node) const override {
    return node.convention() == Convention::Logical() &&
           dynamic_cast<const Project*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& project = static_cast<const Project&>(*call->rel());
    RelNodePtr input = call->Convert(project.input(0), RelTraitSet(to()));
    if (input == nullptr) return;
    call->TransformTo(JdbcProject::Create(std::move(input), project.exprs(),
                                          project.row_type(), engine_, to()));
  }

 private:
  RemoteSqlEnginePtr engine_;
};

class JdbcJoinRule final : public ConverterRule {
 public:
  JdbcJoinRule(RemoteSqlEnginePtr engine, const Convention* convention)
      : ConverterRule(Convention::Logical(), convention),
        engine_(std::move(engine)) {}

  std::string name() const override {
    return "JdbcJoinRule(" + engine_->name() + ")";
  }

  bool MatchesRoot(const RelNode& node) const override {
    const auto* join = dynamic_cast<const Join*>(&node);
    return node.convention() == Convention::Logical() && join != nullptr &&
           join->join_type() != JoinType::kSemi &&
           join->join_type() != JoinType::kAnti;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    // Both sides must live in this same backend for the join to ship as one
    // SQL statement.
    const auto& join = static_cast<const Join&>(*call->rel());
    RelNodePtr left = call->Convert(join.input(0), RelTraitSet(to()));
    RelNodePtr right = call->Convert(join.input(1), RelTraitSet(to()));
    if (left == nullptr || right == nullptr) return;
    call->TransformTo(JdbcJoin::Create(std::move(left), std::move(right),
                                       join.condition(), join.join_type(),
                                       join.row_type(), engine_, to()));
  }

 private:
  RemoteSqlEnginePtr engine_;
};

class JdbcAggregateRule final : public ConverterRule {
 public:
  JdbcAggregateRule(RemoteSqlEnginePtr engine, const Convention* convention)
      : ConverterRule(Convention::Logical(), convention),
        engine_(std::move(engine)) {}

  std::string name() const override {
    return "JdbcAggregateRule(" + engine_->name() + ")";
  }

  bool MatchesRoot(const RelNode& node) const override {
    return node.convention() == Convention::Logical() &&
           dynamic_cast<const Aggregate*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& agg = static_cast<const Aggregate&>(*call->rel());
    RelNodePtr input = call->Convert(agg.input(0), RelTraitSet(to()));
    if (input == nullptr) return;
    call->TransformTo(JdbcAggregate::Create(std::move(input),
                                            agg.group_keys(), agg.agg_calls(),
                                            agg.row_type(), engine_, to()));
  }

 private:
  RemoteSqlEnginePtr engine_;
};

class JdbcSortRule final : public ConverterRule {
 public:
  JdbcSortRule(RemoteSqlEnginePtr engine, const Convention* convention)
      : ConverterRule(Convention::Logical(), convention),
        engine_(std::move(engine)) {}

  std::string name() const override {
    return "JdbcSortRule(" + engine_->name() + ")";
  }

  bool MatchesRoot(const RelNode& node) const override {
    return node.convention() == Convention::Logical() &&
           dynamic_cast<const Sort*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& sort = static_cast<const Sort&>(*call->rel());
    RelNodePtr input = call->Convert(sort.input(0), RelTraitSet(to()));
    if (input == nullptr) return;
    call->TransformTo(JdbcSort::Create(std::move(input), sort.collation(),
                                       sort.offset(), sort.fetch(), engine_,
                                       to()));
  }

 private:
  RemoteSqlEnginePtr engine_;
};

}  // namespace

JdbcSchema::JdbcSchema(RemoteSqlEnginePtr engine)
    : engine_(std::move(engine)),
      convention_(JdbcConvention(engine_->name())) {
  // Mirror the remote tables into this schema so name resolution sees them.
  for (const std::string& table_name : engine_->tables()->TableNames()) {
    AddTable(table_name, engine_->tables()->GetTable(table_name));
  }
}

std::vector<RelOptRulePtr> JdbcSchema::AdapterRules() const {
  return {
      std::make_shared<JdbcTableScanRule>(engine_, convention_),
      std::make_shared<JdbcFilterRule>(engine_, convention_),
      std::make_shared<JdbcProjectRule>(engine_, convention_),
      std::make_shared<JdbcJoinRule>(engine_, convention_),
      std::make_shared<JdbcAggregateRule>(engine_, convention_),
      std::make_shared<JdbcSortRule>(engine_, convention_),
  };
}

// ----------------------------- node constructors ---------------------------

RelNodePtr JdbcTableScan::Create(const TableScan& scan,
                                 RemoteSqlEnginePtr engine,
                                 const Convention* convention) {
  return RelNodePtr(new JdbcTableScan(
      RelTraitSet(convention), scan.row_type(), scan.table(),
      scan.qualified_name(), scan.table_convention(), std::move(engine)));
}

RelNodePtr JdbcTableScan::Copy(RelTraitSet traits,
                               std::vector<RelNodePtr> inputs) const {
  (void)inputs;
  return RelNodePtr(new JdbcTableScan(std::move(traits), row_type(), table_,
                                      qualified_name_, table_convention_,
                                      engine_));
}

RelNodePtr JdbcFilter::Create(RelNodePtr input, RexNodePtr condition,
                              RemoteSqlEnginePtr engine,
                              const Convention* convention) {
  RelDataTypePtr row_type = input->row_type();
  return RelNodePtr(new JdbcFilter(RelTraitSet(convention),
                                   std::move(row_type), std::move(input),
                                   std::move(condition), std::move(engine)));
}

RelNodePtr JdbcFilter::Copy(RelTraitSet traits,
                            std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new JdbcFilter(std::move(traits), row_type(),
                                   std::move(inputs[0]), condition_,
                                   engine_));
}

RelNodePtr JdbcProject::Create(RelNodePtr input, std::vector<RexNodePtr> exprs,
                               RelDataTypePtr row_type,
                               RemoteSqlEnginePtr engine,
                               const Convention* convention) {
  return RelNodePtr(new JdbcProject(RelTraitSet(convention),
                                    std::move(row_type), std::move(input),
                                    std::move(exprs), std::move(engine)));
}

RelNodePtr JdbcProject::Copy(RelTraitSet traits,
                             std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new JdbcProject(std::move(traits), row_type(),
                                    std::move(inputs[0]), exprs_, engine_));
}

RelNodePtr JdbcJoin::Create(RelNodePtr left, RelNodePtr right,
                            RexNodePtr condition, JoinType join_type,
                            RelDataTypePtr row_type, RemoteSqlEnginePtr engine,
                            const Convention* convention) {
  return RelNodePtr(new JdbcJoin(RelTraitSet(convention), std::move(row_type),
                                 std::move(left), std::move(right),
                                 std::move(condition), join_type,
                                 std::move(engine)));
}

RelNodePtr JdbcJoin::Copy(RelTraitSet traits,
                          std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new JdbcJoin(std::move(traits), row_type(),
                                 std::move(inputs[0]), std::move(inputs[1]),
                                 condition_, join_type_, engine_));
}

RelNodePtr JdbcAggregate::Create(RelNodePtr input, std::vector<int> group_keys,
                                 std::vector<AggregateCall> agg_calls,
                                 RelDataTypePtr row_type,
                                 RemoteSqlEnginePtr engine,
                                 const Convention* convention) {
  return RelNodePtr(new JdbcAggregate(
      RelTraitSet(convention), std::move(row_type), std::move(input),
      std::move(group_keys), std::move(agg_calls), std::move(engine)));
}

RelNodePtr JdbcAggregate::Copy(RelTraitSet traits,
                               std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new JdbcAggregate(std::move(traits), row_type(),
                                      std::move(inputs[0]), group_keys_,
                                      agg_calls_, engine_));
}

RelNodePtr JdbcSort::Create(RelNodePtr input, RelCollation collation,
                            int64_t offset, int64_t fetch,
                            RemoteSqlEnginePtr engine,
                            const Convention* convention) {
  RelDataTypePtr row_type = input->row_type();
  RelTraitSet traits(convention, collation);
  return RelNodePtr(new JdbcSort(std::move(traits), std::move(row_type),
                                 std::move(input), std::move(collation),
                                 offset, fetch, std::move(engine)));
}

RelNodePtr JdbcSort::Copy(RelTraitSet traits,
                          std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new JdbcSort(std::move(traits), row_type(),
                                 std::move(inputs[0]), collation_, offset_,
                                 fetch_, engine_));
}

}  // namespace calcite
