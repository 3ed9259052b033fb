#ifndef CALCITE_ADAPTERS_JDBC_JDBC_RELS_H_
#define CALCITE_ADAPTERS_JDBC_JDBC_RELS_H_

#include <memory>
#include <string>
#include <vector>

#include "adapters/jdbc/jdbc_adapter.h"
#include "rel/core.h"

namespace calcite {

/// Physical operators of a JDBC backend's calling convention. Executing any
/// of them renders the subtree to dialect-specific SQL and sends it to the
/// RemoteSqlEngine — whole-subtree push-down, as the real JDBC adapter does.

class JdbcTableScan final : public TableScan, public JdbcRel {
 public:
  static RelNodePtr Create(const TableScan& scan, RemoteSqlEnginePtr engine,
                           const Convention* convention);

  std::string op_name() const override { return "JdbcTableScan"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override {
    return ExecuteViaSql(*this, opts);
  }

 private:
  JdbcTableScan(RelTraitSet traits, RelDataTypePtr row_type, TablePtr table,
                std::vector<std::string> name, const Convention* table_conv,
                RemoteSqlEnginePtr engine)
      : TableScan(std::move(traits), std::move(row_type), std::move(table),
                  std::move(name), table_conv),
        JdbcRel(std::move(engine)) {}
};

class JdbcFilter final : public Filter, public JdbcRel {
 public:
  static RelNodePtr Create(RelNodePtr input, RexNodePtr condition,
                           RemoteSqlEnginePtr engine,
                           const Convention* convention);

  std::string op_name() const override { return "JdbcFilter"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override {
    return ExecuteViaSql(*this, opts);
  }

 private:
  JdbcFilter(RelTraitSet traits, RelDataTypePtr row_type, RelNodePtr input,
             RexNodePtr condition, RemoteSqlEnginePtr engine)
      : Filter(std::move(traits), std::move(row_type), std::move(input),
               std::move(condition)),
        JdbcRel(std::move(engine)) {}
};

class JdbcProject final : public Project, public JdbcRel {
 public:
  static RelNodePtr Create(RelNodePtr input, std::vector<RexNodePtr> exprs,
                           RelDataTypePtr row_type, RemoteSqlEnginePtr engine,
                           const Convention* convention);

  std::string op_name() const override { return "JdbcProject"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override {
    return ExecuteViaSql(*this, opts);
  }

 private:
  JdbcProject(RelTraitSet traits, RelDataTypePtr row_type, RelNodePtr input,
              std::vector<RexNodePtr> exprs, RemoteSqlEnginePtr engine)
      : Project(std::move(traits), std::move(row_type), std::move(input),
                std::move(exprs)),
        JdbcRel(std::move(engine)) {}
};

class JdbcJoin final : public Join, public JdbcRel {
 public:
  static RelNodePtr Create(RelNodePtr left, RelNodePtr right,
                           RexNodePtr condition, JoinType join_type,
                           RelDataTypePtr row_type, RemoteSqlEnginePtr engine,
                           const Convention* convention);

  std::string op_name() const override { return "JdbcJoin"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override {
    return ExecuteViaSql(*this, opts);
  }

 private:
  JdbcJoin(RelTraitSet traits, RelDataTypePtr row_type, RelNodePtr left,
           RelNodePtr right, RexNodePtr condition, JoinType join_type,
           RemoteSqlEnginePtr engine)
      : Join(std::move(traits), std::move(row_type), std::move(left),
             std::move(right), std::move(condition), join_type),
        JdbcRel(std::move(engine)) {}
};

class JdbcAggregate final : public Aggregate, public JdbcRel {
 public:
  static RelNodePtr Create(RelNodePtr input, std::vector<int> group_keys,
                           std::vector<AggregateCall> agg_calls,
                           RelDataTypePtr row_type, RemoteSqlEnginePtr engine,
                           const Convention* convention);

  std::string op_name() const override { return "JdbcAggregate"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override {
    return ExecuteViaSql(*this, opts);
  }

 private:
  JdbcAggregate(RelTraitSet traits, RelDataTypePtr row_type, RelNodePtr input,
                std::vector<int> group_keys,
                std::vector<AggregateCall> agg_calls,
                RemoteSqlEnginePtr engine)
      : Aggregate(std::move(traits), std::move(row_type), std::move(input),
                  std::move(group_keys), std::move(agg_calls)),
        JdbcRel(std::move(engine)) {}
};

class JdbcSort final : public Sort, public JdbcRel {
 public:
  static RelNodePtr Create(RelNodePtr input, RelCollation collation,
                           int64_t offset, int64_t fetch,
                           RemoteSqlEnginePtr engine,
                           const Convention* convention);

  std::string op_name() const override { return "JdbcSort"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override {
    return ExecuteViaSql(*this, opts);
  }

 private:
  JdbcSort(RelTraitSet traits, RelDataTypePtr row_type, RelNodePtr input,
           RelCollation collation, int64_t offset, int64_t fetch,
           RemoteSqlEnginePtr engine)
      : Sort(std::move(traits), std::move(row_type), std::move(input),
             std::move(collation), offset, fetch),
        JdbcRel(std::move(engine)) {}
};

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_JDBC_JDBC_RELS_H_
