// Figure 2 end-to-end: optimizing a query across heterogeneous engines.
//
// Orders live in a (simulated) Splunk instance; Products in a MySQL-dialect
// JDBC backend. The optimizer pushes the WHERE clause into Splunk and then —
// exploiting Splunk's ability to perform lookups into MySQL — migrates the
// join itself into the splunk convention, beating both the client-side and
// the Spark-based federation plans on cost.

#include <cstdio>

#include "adapters/jdbc/jdbc_adapter.h"
#include "adapters/spark/spark_adapter.h"
#include "adapters/splunk/splunk_adapter.h"
#include "tools/frameworks.h"

using namespace calcite;

int main() {
  TypeFactory tf;
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto str_t = tf.CreateSqlType(SqlTypeName::kVarchar, 32);

  // --- MySQL backend with the Products table.
  auto mysql_tables = std::make_shared<Schema>();
  {
    std::vector<Row> rows;
    for (int i = 1; i <= 30; ++i) {
      rows.push_back({Value::Int(i),
                      Value::String("product-" + std::to_string(i))});
    }
    auto table = std::make_shared<MemTable>(
        tf.CreateStructType({"productId", "name"}, {int_t, str_t}),
        std::move(rows));
    TableStats stat;
    stat.row_count = 30;
    stat.unique_keys = {{0}};
    table->set_statistic(stat);
    mysql_tables->AddTable("products", table);
  }
  auto mysql = std::make_shared<RemoteSqlEngine>("mysql", SqlDialect::MySql(),
                                                 mysql_tables);

  // --- Splunk with the Orders events, able to look up into MySQL.
  auto splunk =
      std::make_shared<SplunkSchema>(std::vector<RemoteSqlEnginePtr>{mysql});
  {
    std::vector<Row> rows;
    for (int i = 0; i < 500; ++i) {
      rows.push_back({Value::Int(1700000000 + i), Value::Int(i % 30 + 1),
                      Value::Int(i % 50)});
    }
    splunk->AddTable("orders",
                     std::make_shared<MemTable>(
                         tf.CreateStructType({"rowtime", "productId", "units"},
                                             {int_t, int_t, int_t}),
                         std::move(rows)));
  }

  auto root = std::make_shared<Schema>();
  root->AddSubSchema("splunk", splunk);
  auto jdbc_schema = std::make_shared<JdbcSchema>(mysql);
  root->AddSubSchema("mysql", jdbc_schema);

  Connection::Config config{root};
  config.extra_rules = SparkAdapter::Rules(
      {SplunkSchema::SplunkConvention(), jdbc_schema->ScanConvention()});
  Connection conn(config);

  const std::string sql =
      "SELECT p.name, o.units FROM splunk.orders o "
      "JOIN mysql.products p ON o.productId = p.productId "
      "WHERE o.units > 40";

  std::printf("Query (the paper's Figure 2):\n  %s\n\n", sql.c_str());
  auto logical = conn.Explain(sql, false, true);
  std::printf("Before optimization (join in logical convention):\n%s\n",
              logical.value().c_str());
  auto physical = conn.Explain(sql, true, true);
  std::printf("After optimization (join pushed into Splunk):\n%s\n",
              physical.value().c_str());

  auto result = conn.Query(sql);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("Rows returned: %zu\n\n", result.value().rows.size());

  std::printf("SQL statements Splunk sent to MySQL (ODBC lookups):\n");
  size_t shown = 0;
  for (const std::string& stmt : mysql->statement_log()) {
    if (shown++ == 5) {
      std::printf("  ... (%zu total)\n", mysql->statement_log().size());
      break;
    }
    std::printf("  %s\n", stmt.c_str());
  }
  return 0;
}
