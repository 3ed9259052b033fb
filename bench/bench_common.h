#ifndef CALCITE_BENCH_BENCH_COMMON_H_
#define CALCITE_BENCH_BENCH_COMMON_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adapters/jdbc/jdbc_adapter.h"
#include "adapters/spark/spark_adapter.h"
#include "adapters/splunk/splunk_adapter.h"
#include "schema/schema.h"
#include "schema/table.h"
#include "tools/frameworks.h"

namespace calcite::bench {

inline TypeFactory& Tf() {
  static TypeFactory tf;
  return tf;
}

/// sales(saleid, productId, discount?, units) with `n` rows and
/// products(productId, name) with `products` rows — the Figure 4 data at
/// parameterized scale.
inline SchemaPtr MakeSalesSchema(int n, int products) {
  auto& tf = Tf();
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto str_t = tf.CreateSqlType(SqlTypeName::kVarchar, 32);
  auto dbl_null = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
  auto schema = std::make_shared<Schema>();
  {
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      rows.push_back({Value::Int(i), Value::Int(i % products + 1),
                      i % 3 == 0 ? Value::Null()
                                 : Value::Double((i % 10) / 10.0),
                      Value::Int(i % 20)});
    }
    auto table = std::make_shared<MemTable>(
        tf.CreateStructType({"saleid", "productId", "discount", "units"},
                            {int_t, int_t, dbl_null, int_t}),
        std::move(rows));
    TableStats stat;
    stat.row_count = n;
    stat.unique_keys = {{0}};
    table->set_statistic(stat);
    schema->AddTable("sales", table);
  }
  {
    std::vector<Row> rows;
    for (int i = 1; i <= products; ++i) {
      rows.push_back(
          {Value::Int(i), Value::String("product-" + std::to_string(i))});
    }
    auto table = std::make_shared<MemTable>(
        tf.CreateStructType({"productId", "name"}, {int_t, str_t}),
        std::move(rows));
    TableStats stat;
    stat.row_count = products;
    stat.unique_keys = {{0}};
    table->set_statistic(stat);
    schema->AddTable("products", table);
  }
  return schema;
}

/// The Figure 2 catalog (Splunk orders + MySQL products) at scale.
struct FederationCatalog {
  SchemaPtr root;
  RemoteSqlEnginePtr mysql;
  std::shared_ptr<JdbcSchema> jdbc;
};

inline FederationCatalog MakeFederationCatalog(int orders, int products) {
  auto& tf = Tf();
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto str_t = tf.CreateSqlType(SqlTypeName::kVarchar, 32);

  auto mysql_tables = std::make_shared<Schema>();
  {
    std::vector<Row> rows;
    for (int i = 1; i <= products; ++i) {
      rows.push_back(
          {Value::Int(i), Value::String("product-" + std::to_string(i))});
    }
    auto table = std::make_shared<MemTable>(
        tf.CreateStructType({"productId", "name"}, {int_t, str_t}),
        std::move(rows));
    TableStats stat;
    stat.row_count = products;
    stat.unique_keys = {{0}};
    table->set_statistic(stat);
    mysql_tables->AddTable("products", table);
  }
  auto mysql = std::make_shared<RemoteSqlEngine>("mysql", SqlDialect::MySql(),
                                                 mysql_tables);
  auto splunk =
      std::make_shared<SplunkSchema>(std::vector<RemoteSqlEnginePtr>{mysql});
  {
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(orders));
    for (int i = 0; i < orders; ++i) {
      rows.push_back({Value::Int(1700000000 + i),
                      Value::Int(i % products + 1), Value::Int(i % 50)});
    }
    splunk->AddTable(
        "orders",
        std::make_shared<MemTable>(
            tf.CreateStructType({"rowtime", "productId", "units"},
                                {int_t, int_t, int_t}),
            std::move(rows)));
  }
  auto root = std::make_shared<Schema>();
  root->AddSubSchema("splunk", splunk);
  auto jdbc = std::make_shared<JdbcSchema>(mysql);
  root->AddSubSchema("mysql", jdbc);
  return {root, mysql, jdbc};
}

/// Prints a headline block once per binary (used by the table-reproduction
/// benches to emit the regenerated paper artifact alongside the timings).
inline void PrintOnce(const std::string& text) {
  static std::mutex mu;
  static std::vector<std::string> printed;
  std::lock_guard<std::mutex> lock(mu);
  for (const std::string& p : printed) {
    if (p == text) return;
  }
  printed.push_back(text);
  std::fputs(text.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace calcite::bench

#endif  // CALCITE_BENCH_BENCH_COMMON_H_
