#include "adapters/cassandra/cassandra_adapter.h"

#include <algorithm>

#include "metadata/metadata.h"
#include "rex/rex_interpreter.h"
#include "rex/rex_util.h"

namespace calcite {

namespace {

/// `rows` in storage order: by partition key, then clustering collation.
std::vector<Row> PartitionOrder(std::vector<Row> rows,
                                const std::vector<int>& partition_keys,
                                const RelCollation& clustering) {
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const Row& a, const Row& b) {
                     for (int k : partition_keys) {
                       int c = a[static_cast<size_t>(k)].Compare(
                           b[static_cast<size_t>(k)]);
                       if (c != 0) return c < 0;
                     }
                     for (const FieldCollation& fc : clustering.fields()) {
                       int c = a[static_cast<size_t>(fc.field)].Compare(
                           b[static_cast<size_t>(fc.field)]);
                       if (fc.direction == Direction::kDescending) c = -c;
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });
  return rows;
}

}  // namespace

CassandraTable::CassandraTable(RelDataTypePtr row_type, std::vector<Row> rows,
                               std::vector<int> partition_keys,
                               RelCollation clustering)
    : MemTable(std::move(row_type),
               PartitionOrder(std::move(rows), partition_keys, clustering)),
      partition_keys_(std::move(partition_keys)),
      clustering_(std::move(clustering)) {}

const Convention* CassandraSchema::CassandraConvention() {
  static const Convention* kConvention = new Convention("CASSANDRA", 0.9);
  return kConvention;
}

const Convention* CassandraSchema::ScanConvention() const {
  return CassandraConvention();
}

// ------------------------------- operators ---------------------------------

RelNodePtr CassandraTableScan::Create(const TableScan& scan) {
  return RelNodePtr(new CassandraTableScan(
      RelTraitSet(CassandraSchema::CassandraConvention()), scan.row_type(),
      scan.table(), scan.qualified_name(), scan.table_convention()));
}

RelNodePtr CassandraTableScan::Copy(RelTraitSet traits,
                                    std::vector<RelNodePtr> inputs) const {
  (void)inputs;
  return RelNodePtr(new CassandraTableScan(std::move(traits), row_type(),
                                           table_, qualified_name_,
                                           table_convention_));
}

Result<RowBatchPuller> CassandraTableScan::ExecuteBatched(
    const ExecOptions& opts) const {
  return ChunkResult(table_->Scan(), opts);
}

RelNodePtr CassandraFilter::Create(
    RelNodePtr input, RexNodePtr condition, bool single_partition,
    std::shared_ptr<const CassandraTable> table) {
  RelDataTypePtr row_type = input->row_type();
  return RelNodePtr(new CassandraFilter(
      RelTraitSet(CassandraSchema::CassandraConvention()),
      std::move(row_type), std::move(input), std::move(condition),
      single_partition, std::move(table)));
}

std::string CassandraFilter::DigestAttributes() const {
  return Filter::DigestAttributes() +
         (single_partition_ ? ", singlePartition" : "");
}

RelNodePtr CassandraFilter::Copy(RelTraitSet traits,
                                 std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new CassandraFilter(std::move(traits), row_type(),
                                        std::move(inputs[0]), condition_,
                                        single_partition_, table_));
}

Result<RowBatchPuller> CassandraFilter::ExecuteBatched(
    const ExecOptions& opts) const {
  auto rows = input(0)->Execute(opts);
  if (!rows.ok()) return rows.status();
  return ChunkResult(
      RexInterpreter::FilterRows(condition_, std::move(rows).value()), opts);
}

std::optional<RelOptCost> CassandraFilter::SelfCost(MetadataQuery* mq) const {
  double out_rows = mq->RowCount(shared_from_this());
  if (single_partition_) {
    // A partition-key point read touches one partition only.
    return RelOptCost(out_rows, out_rows * 0.2, out_rows * 0.1);
  }
  double input_rows = mq->RowCount(input(0));
  return RelOptCost(out_rows, input_rows * 0.8, 0);
}

RelNodePtr CassandraSort::Create(RelNodePtr input, RelCollation collation) {
  RelDataTypePtr row_type = input->row_type();
  RelTraitSet traits(CassandraSchema::CassandraConvention(), collation);
  return RelNodePtr(new CassandraSort(std::move(traits), std::move(row_type),
                                      std::move(input), std::move(collation),
                                      0, -1));
}

RelNodePtr CassandraSort::Copy(RelTraitSet traits,
                               std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new CassandraSort(std::move(traits), row_type(),
                                      std::move(inputs[0]), collation_,
                                      offset_, fetch_));
}

Result<RowBatchPuller> CassandraSort::ExecuteBatched(
    const ExecOptions& opts) const {
  auto rows = input(0)->Execute(opts);
  if (!rows.ok()) return rows.status();
  std::vector<Row> data = std::move(rows).value();
  // Within a single partition the store already returns rows in clustering
  // order; the stable sort below is a no-op pass in the common case and
  // keeps the simulation honest for synthetic inputs.
  std::stable_sort(data.begin(), data.end(),
                   [this](const Row& a, const Row& b) {
                     for (const FieldCollation& fc : collation_.fields()) {
                       int c = a[static_cast<size_t>(fc.field)].Compare(
                           b[static_cast<size_t>(fc.field)]);
                       if (fc.direction == Direction::kDescending) c = -c;
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });
  return ChunkResult(std::move(data), opts);
}

std::optional<RelOptCost> CassandraSort::SelfCost(MetadataQuery* mq) const {
  double rows = mq->RowCount(input(0));
  // Retrieval in clustering order: linear, no comparison sort.
  return RelOptCost(rows, rows * 0.1, 0);
}

// --------------------------------- rules -----------------------------------

namespace {

const CassandraTable* TableOf(const RelNode& node) {
  const auto* scan = dynamic_cast<const TableScan*>(&node);
  if (scan == nullptr) return nullptr;
  return dynamic_cast<const CassandraTable*>(scan->table().get());
}

class CassandraTableScanRule final : public ConverterRule {
 public:
  CassandraTableScanRule()
      : ConverterRule(Convention::Logical(),
                      CassandraSchema::CassandraConvention()) {}

  std::string name() const override { return "CassandraTableScanRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    if (node.convention() != Convention::Logical()) return false;
    const auto* scan = dynamic_cast<const TableScan*>(&node);
    return scan != nullptr && scan->table_convention() == to();
  }

  void OnMatch(RelOptRuleCall* call) const override {
    call->TransformTo(CassandraTableScan::Create(
        static_cast<const TableScan&>(*call->rel())));
  }
};

/// Rewrites LogicalFilter over a Cassandra scan to CassandraFilter, marking
/// whether the predicate pins a single partition ("this requires that a
/// LogicalFilter has been rewritten to a CassandraFilter to ensure the
/// partition filter is pushed down to the database", §6).
class CassandraFilterRule final : public RelOptRule {
 public:
  std::string name() const override { return "CassandraFilterRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return node.convention() == Convention::Logical() &&
           dynamic_cast<const Filter*>(&node) != nullptr;
  }

  bool MatchesChild(int i, const RelNode& child) const override {
    return i != 0 || TableOf(child) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& filter = static_cast<const Filter&>(*call->rel());
    const CassandraTable* table = TableOf(*filter.input(0));
    if (table == nullptr) return;

    // Which partition keys are pinned by equality with a constant?
    std::set<int> pinned;
    for (const RexNodePtr& conjunct : RexUtil::FlattenAnd(filter.condition())) {
      const RexCall* eq = AsCall(conjunct);
      if (eq == nullptr || eq->op() != OpKind::kEquals) continue;
      const RexInputRef* ref = AsInputRef(eq->operand(0));
      const RexNodePtr& other = eq->operand(1);
      if (ref == nullptr) continue;
      if (RexUtil::IsConstant(other)) pinned.insert(ref->index());
    }
    bool single_partition = !table->partition_keys().empty();
    for (int key : table->partition_keys()) {
      if (pinned.count(key) == 0) single_partition = false;
    }

    const auto* scan_node =
        dynamic_cast<const TableScan*>(filter.input(0).get());
    std::shared_ptr<const CassandraTable> table_ptr =
        std::dynamic_pointer_cast<const CassandraTable>(scan_node->table());
    RelNodePtr scan = call->Convert(
        filter.input(0),
        RelTraitSet(CassandraSchema::CassandraConvention()));
    if (scan == nullptr) return;
    call->TransformTo(CassandraFilter::Create(std::move(scan),
                                              filter.condition(),
                                              single_partition,
                                              std::move(table_ptr)));
  }
};

/// The §6 example rule, both preconditions checked:
///  (1) input filtered to a single partition,
///  (2) required sort shares a prefix with the clustering order.
class CassandraSortRule final : public RelOptRule {
 public:
  std::string name() const override { return "CassandraSortRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    const auto* sort = dynamic_cast<const Sort*>(&node);
    return node.convention() == Convention::Logical() && sort != nullptr &&
           !sort->collation().empty();
  }

  bool MatchesChild(int i, const RelNode& child) const override {
    if (i != 0) return true;
    const auto* filter = dynamic_cast<const CassandraFilter*>(&child);
    return filter != nullptr && filter->single_partition();
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& sort = static_cast<const Sort&>(*call->rel());
    const auto* filter =
        dynamic_cast<const CassandraFilter*>(sort.input(0).get());
    if (filter == nullptr || !filter->single_partition()) return;
    const std::shared_ptr<const CassandraTable>& table =
        filter->cassandra_table();
    if (table == nullptr) return;
    // Precondition (2): clustering order must satisfy the requested sort.
    if (!table->clustering().Satisfies(sort.collation())) return;
    call->TransformTo(
        CassandraSort::Create(sort.input(0), sort.collation()));
  }
};

}  // namespace

std::vector<RelOptRulePtr> CassandraSchema::AdapterRules() const {
  return {
      std::make_shared<CassandraTableScanRule>(),
      std::make_shared<CassandraFilterRule>(),
      std::make_shared<CassandraSortRule>(),
  };
}

// ---------------------------- CQL generation -------------------------------

namespace {

Result<std::string> CqlExpr(const RexNodePtr& rex,
                            const std::vector<std::string>& fields) {
  if (const RexInputRef* ref = AsInputRef(rex)) {
    return fields[static_cast<size_t>(ref->index())];
  }
  if (const RexLiteral* lit = AsLiteral(rex)) {
    if (lit->value().is_string()) return "'" + lit->value().AsString() + "'";
    return lit->value().ToString();
  }
  const RexCall* call = AsCall(rex);
  if (call == nullptr) return Status::Unsupported("cannot render CQL");
  std::vector<std::string> operands;
  for (const RexNodePtr& operand : call->operands()) {
    auto sub = CqlExpr(operand, fields);
    if (!sub.ok()) return sub;
    operands.push_back(std::move(sub).value());
  }
  if (call->op() == OpKind::kAnd) {
    std::string out = operands[0];
    for (size_t i = 1; i < operands.size(); ++i) out += " AND " + operands[i];
    return out;
  }
  if (IsComparison(call->op())) {
    return operands[0] + " " + OpKindName(call->op()) + " " + operands[1];
  }
  return Status::Unsupported(std::string("operator ") +
                             OpKindName(call->op()) + " in CQL");
}

}  // namespace

Result<std::string> CassandraGenerateCql(const RelNodePtr& node) {
  if (const auto* scan = dynamic_cast<const CassandraTableScan*>(node.get())) {
    return "SELECT * FROM " + scan->qualified_name().back() + ";";
  }
  if (const auto* filter = dynamic_cast<const CassandraFilter*>(node.get())) {
    auto base = CassandraGenerateCql(node->input(0));
    if (!base.ok()) return base;
    std::string sql = base.value();
    sql.pop_back();  // trailing ';'
    std::vector<std::string> fields;
    for (const RelDataTypeField& f : filter->input(0)->row_type()->fields()) {
      fields.push_back(f.name);
    }
    auto expr = CqlExpr(filter->condition(), fields);
    if (!expr.ok()) return expr;
    return sql + " WHERE " + expr.value() +
           (filter->single_partition() ? ";" : " ALLOW FILTERING;");
  }
  if (const auto* sort = dynamic_cast<const CassandraSort*>(node.get())) {
    auto base = CassandraGenerateCql(node->input(0));
    if (!base.ok()) return base;
    std::string sql = base.value();
    sql.pop_back();
    std::string order;
    const auto& fields = sort->input(0)->row_type()->fields();
    for (size_t i = 0; i < sort->collation().fields().size(); ++i) {
      const FieldCollation& fc = sort->collation().fields()[i];
      if (i > 0) order += ", ";
      order += fields[static_cast<size_t>(fc.field)].name;
      if (fc.direction == Direction::kDescending) order += " DESC";
    }
    return sql + " ORDER BY " + order + ";";
  }
  return Status::Unsupported("cannot render CQL for " + node->op_name());
}

}  // namespace calcite
