#ifndef CALCITE_ADAPTERS_JDBC_JDBC_ADAPTER_H_
#define CALCITE_ADAPTERS_JDBC_JDBC_ADAPTER_H_

#include <memory>
#include <string>
#include <vector>

#include "plan/rule.h"
#include "rel/core.h"
#include "schema/schema.h"
#include "sql/dialect.h"
#include "util/status.h"

namespace calcite {

/// A simulated remote SQL database: the backend of the JDBC adapter.
///
/// Substitution note (DESIGN.md §2): where the paper's JDBC adapter talks to
/// MySQL/PostgreSQL over a wire protocol, this backend embeds a second
/// instance of our own engine and accepts *SQL text* — so the adapter still
/// exercises the real code path: plan subtree → Rel-to-SQL (per dialect) →
/// remote parse/plan/execute. Every received statement is logged for
/// inspection (Table 2 reproduces adapter → target-language translations).
class RemoteSqlEngine {
 public:
  RemoteSqlEngine(std::string name, const SqlDialect& dialect,
                  SchemaPtr tables);

  const std::string& name() const { return name_; }
  const SqlDialect& dialect() const { return *dialect_; }
  const SchemaPtr& tables() const { return tables_; }

  /// Parses, plans and executes `sql` against the embedded store.
  Result<std::vector<Row>> ExecuteSql(const std::string& sql);

  /// SQL statements received so far (most recent last).
  const std::vector<std::string>& statement_log() const {
    return statement_log_;
  }
  void ClearLog() { statement_log_.clear(); }

 private:
  std::string name_;
  const SqlDialect* dialect_;
  SchemaPtr tables_;
  std::vector<std::string> statement_log_;
};

using RemoteSqlEnginePtr = std::shared_ptr<RemoteSqlEngine>;

/// Schema adapter for a remote SQL database (Figure 3): tables resolve to
/// JdbcTable facades; AdapterRules() contributes the push-down rules; scans
/// start in this adapter's own calling convention.
class JdbcSchema final : public Schema {
 public:
  explicit JdbcSchema(RemoteSqlEnginePtr engine);

  const Convention* ScanConvention() const override { return convention_; }
  std::vector<RelOptRulePtr> AdapterRules() const override;

  const RemoteSqlEnginePtr& engine() const { return engine_; }

 private:
  RemoteSqlEnginePtr engine_;
  const Convention* convention_;
};

/// A relational operator executing inside the remote SQL engine. All JDBC
/// nodes execute by rendering their subtree to SQL and shipping it to the
/// backend.
class JdbcRel {
 public:
  virtual ~JdbcRel() = default;
  explicit JdbcRel(RemoteSqlEnginePtr engine) : engine_(std::move(engine)) {}

  const RemoteSqlEnginePtr& engine() const { return engine_; }

 protected:
  /// Renders `self`'s subtree to SQL, runs it remotely, and streams the
  /// returned rows in opts.batch_size chunks.
  Result<RowBatchPuller> ExecuteViaSql(const RelNode& self,
                                       const ExecOptions& opts) const;

  RemoteSqlEnginePtr engine_;
};

/// Generates the SQL this JDBC subtree would ship to its backend. Used by
/// tests and the Table 2 bench.
Result<std::string> JdbcGenerateSql(const RelNodePtr& node);

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_JDBC_JDBC_ADAPTER_H_
