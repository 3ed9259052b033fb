#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "adapters/cassandra/cassandra_adapter.h"
#include "adapters/csv/csv_adapter.h"
#include "adapters/jdbc/jdbc_adapter.h"
#include "adapters/mongo/mongo_adapter.h"
#include "adapters/spark/spark_adapter.h"
#include "adapters/splunk/splunk_adapter.h"
#include "rel/rel_writer.h"
#include "schema/model.h"
#include "test_schema.h"
#include "tools/frameworks.h"

namespace calcite {
namespace {

TypeFactory tf;

// ----------------------------- Figure 2 setup ------------------------------

/// Builds the Figure 2 catalog: an Orders stream-ish event table in Splunk
/// and a Products table in a MySQL-dialect JDBC backend that Splunk can
/// reach via lookups.
struct Figure2Catalog {
  SchemaPtr root;
  RemoteSqlEnginePtr mysql;
};

Figure2Catalog MakeFigure2Catalog() {
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto str_t = tf.CreateSqlType(SqlTypeName::kVarchar, 32);

  // The MySQL backend with the Products table.
  auto mysql_tables = std::make_shared<Schema>();
  {
    auto row = tf.CreateStructType({"productId", "name", "price"},
                                   {int_t, str_t, int_t});
    std::vector<Row> rows;
    for (int i = 1; i <= 20; ++i) {
      rows.push_back({Value::Int(i), Value::String("product-" + std::to_string(i)),
                      Value::Int(i * 10)});
    }
    auto table = std::make_shared<MemTable>(row, std::move(rows));
    TableStats stat;
    stat.row_count = 20;
    stat.unique_keys = {{0}};
    table->set_statistic(stat);
    mysql_tables->AddTable("products", table);
  }
  auto mysql = std::make_shared<RemoteSqlEngine>("mysql", SqlDialect::MySql(),
                                                 mysql_tables);

  // The Splunk engine with the Orders events.
  auto splunk = std::make_shared<SplunkSchema>(
      std::vector<RemoteSqlEnginePtr>{mysql});
  {
    auto row = tf.CreateStructType({"rowtime", "productId", "units"},
                                   {int_t, int_t, int_t});
    std::vector<Row> rows;
    for (int i = 0; i < 200; ++i) {
      rows.push_back({Value::Int(1000 + i), Value::Int(i % 20 + 1),
                      Value::Int(i % 40)});
    }
    splunk->AddTable("orders", std::make_shared<MemTable>(row, std::move(rows)));
  }

  auto root = std::make_shared<Schema>();
  root->AddSubSchema("splunk", splunk);
  root->AddSubSchema("mysql", std::make_shared<JdbcSchema>(mysql));
  return {root, mysql};
}

TEST(Figure2Test, JoinMigratesIntoSplunkConvention) {
  Figure2Catalog catalog = MakeFigure2Catalog();
  Connection::Config config{catalog.root};
  config.extra_rules = SparkAdapter::Rules(
      {SplunkSchema::SplunkConvention(),
       std::dynamic_pointer_cast<JdbcSchema>(
           catalog.root->GetSubSchema("mysql"))
           ->ScanConvention()});
  Connection conn(config);

  const std::string query =
      "SELECT p.name, o.units FROM splunk.orders o "
      "JOIN mysql.products p ON o.productId = p.productId "
      "WHERE o.units > 25";

  auto plan = conn.Explain(query, /*optimized=*/true, /*include_traits=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The paper's efficient implementation: the filter is pushed into splunk
  // and the join runs in the splunk convention via remote lookups.
  EXPECT_NE(plan.value().find("SplunkLookupJoin"), std::string::npos)
      << plan.value();
  EXPECT_NE(plan.value().find("SplunkFilter"), std::string::npos)
      << plan.value();

  catalog.mysql->ClearLog();
  auto result = conn.Query(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // units > 25 keeps units in 26..39: 14 of 40 slots, 5 full cycles = 70.
  EXPECT_EQ(result.value().rows.size(), 70u);
  // The join must have reached MySQL through per-key lookups, not a bulk
  // table transfer.
  EXPECT_FALSE(catalog.mysql->statement_log().empty());
  for (const std::string& sql : catalog.mysql->statement_log()) {
    EXPECT_NE(sql.find("WHERE"), std::string::npos) << sql;
  }
}

TEST(Figure2Test, ResultsMatchPureEnumerableExecution) {
  Figure2Catalog catalog = MakeFigure2Catalog();
  const std::string query =
      "SELECT p.name, o.units FROM splunk.orders o "
      "JOIN mysql.products p ON o.productId = p.productId "
      "WHERE o.units > 25 ORDER BY o.units, p.name";

  Connection with_adapters{Connection::Config{catalog.root}};
  auto fast = with_adapters.Query(query);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();

  // Reference: the same data in plain in-memory tables.
  auto reference_schema = std::make_shared<Schema>();
  auto splunk = catalog.root->GetSubSchema("splunk");
  reference_schema->AddTable("orders", splunk->GetTable("orders"));
  reference_schema->AddTable(
      "products", catalog.mysql->tables()->GetTable("products"));
  Connection reference{Connection::Config{reference_schema}};
  auto expected = reference.Query(
      "SELECT p.name, o.units FROM orders o "
      "JOIN products p ON o.productId = p.productId "
      "WHERE o.units > 25 ORDER BY o.units, p.name");
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  ASSERT_EQ(fast.value().rows.size(), expected.value().rows.size());
  for (size_t i = 0; i < fast.value().rows.size(); ++i) {
    EXPECT_EQ(RowToString(fast.value().rows[i]),
              RowToString(expected.value().rows[i]));
  }
}

// ------------------------------- Cassandra ---------------------------------

SchemaPtr MakeCassandraCatalog() {
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto str_t = tf.CreateSqlType(SqlTypeName::kVarchar, 32);
  auto row = tf.CreateStructType({"deptno", "salary", "name"},
                                 {int_t, int_t, str_t});
  std::vector<Row> rows;
  for (int i = 0; i < 60; ++i) {
    rows.push_back({Value::Int(i % 3 * 10 + 10), Value::Int(9999 - i * 7),
                    Value::String("e" + std::to_string(i))});
  }
  // Partitioned by deptno; rows sorted by salary within each partition.
  auto table = std::make_shared<CassandraTable>(
      row, std::move(rows), std::vector<int>{0},
      RelCollation::Of({1}));
  auto cass = std::make_shared<CassandraSchema>();
  cass->AddTable("emps", table);
  auto root = std::make_shared<Schema>();
  root->AddSubSchema("cass", cass);
  return root;
}

TEST(CassandraTest, SortPushedDownWhenBothPreconditionsHold) {
  Connection conn{Connection::Config{MakeCassandraCatalog()}};
  // Single-partition filter + sort matching the clustering order.
  auto plan = conn.Explain(
      "SELECT * FROM cass.emps WHERE deptno = 10 ORDER BY salary", true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan.value().find("CassandraSort"), std::string::npos)
      << plan.value();
  EXPECT_EQ(plan.value().find("EnumerableSort"), std::string::npos)
      << plan.value();

  auto rows = conn.Query(
      "SELECT * FROM cass.emps WHERE deptno = 10 ORDER BY salary");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().rows.size(), 20u);
  for (size_t i = 1; i < rows.value().rows.size(); ++i) {
    EXPECT_LE(rows.value().rows[i - 1][1].AsInt(),
              rows.value().rows[i][1].AsInt());
  }
}

TEST(CassandraTest, NoPushdownWithoutPartitionFilter) {
  // Precondition (1) violated: no single-partition filter.
  Connection conn{Connection::Config{MakeCassandraCatalog()}};
  auto plan = conn.Explain("SELECT * FROM cass.emps ORDER BY salary", true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().find("CassandraSort"), std::string::npos)
      << plan.value();
  EXPECT_NE(plan.value().find("EnumerableSort"), std::string::npos)
      << plan.value();
}

TEST(CassandraTest, NoPushdownForIncompatibleCollation) {
  // Precondition (2) violated: sort on a non-clustering column.
  Connection conn{Connection::Config{MakeCassandraCatalog()}};
  auto plan = conn.Explain(
      "SELECT * FROM cass.emps WHERE deptno = 10 ORDER BY name", true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().find("CassandraSort"), std::string::npos)
      << plan.value();
  EXPECT_NE(plan.value().find("EnumerableSort"), std::string::npos)
      << plan.value();
}

TEST(CassandraTest, GeneratesCql) {
  Connection conn{Connection::Config{MakeCassandraCatalog()}};
  auto logical = conn.ParseQuery(
      "SELECT * FROM cass.emps WHERE deptno = 10 ORDER BY salary");
  ASSERT_TRUE(logical.ok());
  auto physical = conn.OptimizePlan(logical.value());
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  // Locate the cassandra subtree under the interpreter.
  RelNodePtr node = physical.value();
  while (node != nullptr &&
         node->convention() != CassandraSchema::CassandraConvention()) {
    node = node->num_inputs() > 0 ? node->input(0) : nullptr;
  }
  ASSERT_NE(node, nullptr);
  auto cql = CassandraGenerateCql(node);
  ASSERT_TRUE(cql.ok()) << cql.status().ToString();
  EXPECT_NE(cql.value().find("SELECT * FROM emps WHERE deptno = 10"),
            std::string::npos)
      << cql.value();
  EXPECT_NE(cql.value().find("ORDER BY salary"), std::string::npos)
      << cql.value();
}

// --------------------------------- Mongo -----------------------------------

SchemaPtr MakeMongoCatalog() {
  std::vector<JsonValue> docs;
  const char* zips[] = {
      R"({"city": "AMSTERDAM", "pop": 821752, "loc": [4.9, 52.37]})",
      R"({"city": "ROTTERDAM", "pop": 623652, "loc": [4.47, 51.92]})",
      R"({"city": "UTRECHT", "pop": 345080, "loc": [5.12, 52.09]})",
  };
  for (const char* text : zips) {
    auto doc = ParseJson(text);
    docs.push_back(doc.value());
  }
  auto mongo = std::make_shared<MongoSchema>();
  mongo->AddTable("zips", std::make_shared<MongoTable>(std::move(docs)));
  // The §7.1 view exposing documents relationally.
  TypeFactory local_tf;
  mongo->AddTable(
      "zips_relational",
      std::make_shared<ViewTable>(
          "SELECT CAST(_MAP['city'] AS VARCHAR(20)) AS city, "
          "CAST(_MAP['loc'][0] AS FLOAT) AS longitude, "
          "CAST(_MAP['loc'][1] AS FLOAT) AS latitude, "
          "CAST(_MAP['pop'] AS INTEGER) AS pop "
          "FROM mongo.zips",
          local_tf.CreateStructType({}, {})));
  auto root = std::make_shared<Schema>();
  root->AddSubSchema("mongo", mongo);
  return root;
}

TEST(MongoTest, MapColumnAndItemOperator) {
  Connection conn{Connection::Config{MakeMongoCatalog()}};
  auto result = conn.Query(
      "SELECT CAST(_MAP['city'] AS VARCHAR(20)) AS city FROM mongo.zips "
      "ORDER BY city");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 3u);
  EXPECT_EQ(result.value().rows[0][0].AsString(), "AMSTERDAM");
}

TEST(MongoTest, ViewExposesDocumentsRelationally) {
  Connection conn{Connection::Config{MakeMongoCatalog()}};
  auto result = conn.Query(
      "SELECT city, pop FROM mongo.zips_relational WHERE pop > 400000 "
      "ORDER BY pop DESC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().rows[0][0].AsString(), "AMSTERDAM");
  EXPECT_EQ(result.value().rows[1][0].AsString(), "ROTTERDAM");
}

TEST(MongoTest, FilterPushdownGeneratesFindQuery) {
  Connection conn{Connection::Config{MakeMongoCatalog()}};
  auto logical =
      conn.ParseQuery("SELECT * FROM mongo.zips WHERE _MAP['city'] = "
                      "'AMSTERDAM'");
  ASSERT_TRUE(logical.ok()) << logical.status().ToString();
  auto physical = conn.OptimizePlan(logical.value());
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  std::string plan = ExplainPlan(physical.value());
  EXPECT_NE(plan.find("MongoFilter"), std::string::npos) << plan;

  RelNodePtr node = physical.value();
  while (node != nullptr &&
         dynamic_cast<const MongoFilter*>(node.get()) == nullptr) {
    node = node->num_inputs() > 0 ? node->input(0) : nullptr;
  }
  ASSERT_NE(node, nullptr);
  auto find = MongoGenerateQuery(node);
  ASSERT_TRUE(find.ok());
  EXPECT_EQ(find.value(), "db.zips.find({\"city\":\"AMSTERDAM\"})");
}

// ---------------------------------- JDBC -----------------------------------

TEST(JdbcTest, WholeQueryPushdown) {
  Figure2Catalog catalog = MakeFigure2Catalog();
  Connection conn{Connection::Config{catalog.root}};
  catalog.mysql->ClearLog();
  auto result = conn.Query(
      "SELECT name FROM mysql.products WHERE price > 150 ORDER BY name");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().rows.size(), 5u);
  // Exactly one SQL statement shipped, containing the filter (and rendered
  // in the MySQL dialect with backtick quoting).
  ASSERT_EQ(catalog.mysql->statement_log().size(), 1u);
  const std::string& sql = catalog.mysql->statement_log()[0];
  EXPECT_NE(sql.find("WHERE"), std::string::npos) << sql;
  EXPECT_NE(sql.find('`'), std::string::npos) << sql;
}

TEST(JdbcTest, AggregatePushdown) {
  Figure2Catalog catalog = MakeFigure2Catalog();
  Connection conn{Connection::Config{catalog.root}};
  catalog.mysql->ClearLog();
  auto result = conn.Query(
      "SELECT COUNT(*) AS c FROM mysql.products WHERE price >= 100");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 11);
  ASSERT_EQ(catalog.mysql->statement_log().size(), 1u);
  EXPECT_NE(catalog.mysql->statement_log()[0].find("COUNT"),
            std::string::npos);
}

// ------------------------------- CSV / model -------------------------------

TEST(CsvTest, ParseAndQuery) {
  auto table = ParseCsv(
      "empno:int,name:string,sal:double\n"
      "100,Fred,5000.5\n"
      "110,Eric,8000\n"
      "120,Wilma,9000\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  auto schema = std::make_shared<Schema>();
  schema->AddTable("emps_csv", table.value());
  Connection conn{Connection::Config{schema}};
  auto result =
      conn.Query("SELECT name FROM emps_csv WHERE sal > 6000 ORDER BY name");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().rows[0][0].AsString(), "Eric");
}

TEST(CsvTest, ModelFileLoadsDirectory) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "calcite_csv_test";
  fs::create_directories(dir);
  {
    std::ofstream out(dir / "depts.csv");
    out << "deptno:int,dname:string\n10,Sales\n20,Marketing\n";
  }
  std::string model = R"({
    "defaultSchema": "files",
    "schemas": [
      {"name": "files", "factory": "csv",
       "operand": {"directory": ")" + dir.string() + R"("}}
    ]
  })";
  auto schema = LoadModel(model);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  Connection conn{Connection::Config{schema.value()}};
  auto result = conn.Query("SELECT dname FROM files.depts WHERE deptno = 20");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0][0].AsString(), "Marketing");
  fs::remove_all(dir);
}

TEST(CsvTest, BadHeaderIsError) {
  auto table = ParseCsv("empno\n100\n");
  EXPECT_FALSE(table.ok());
}

TEST(CsvTest, CellsMustParseAsTheirColumnType) {
  struct Case {
    const char* type;
    const char* cell;
  };
  const std::vector<Case> bad = {
      {"int", "abc"},
      {"int", "12x"},
      {"int", "99999999999999999999"},
      {"int", "3000000000"},  // beyond INTEGER, fine as a long
      {"long", "99999999999999999999"},
      {"double", "foo"},
      {"double", "1.5e"},
      {"boolean", "yes"},
  };
  for (const Case& c : bad) {
    std::string text = std::string("id:int,v:") + c.type + "\n1,\n\n2," +
                       c.cell + "\n";
    auto table = ParseCsv(text);
    ASSERT_FALSE(table.ok()) << c.type << " '" << c.cell << "' was accepted";
    EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
    const std::string& message = table.status().message();
    EXPECT_NE(message.find("line 4"), std::string::npos) << message;
    EXPECT_NE(message.find("'v'"), std::string::npos) << message;
    EXPECT_NE(message.find(c.cell), std::string::npos) << message;
  }

  // What each type can represent still loads; an empty cell is NULL.
  auto table = ParseCsv(
      "i:int,l:long,d:double,b:boolean\n"
      "-2147483648,9223372036854775807,1.5e3,TRUE\n"
      "2147483647,-42,-0.25,false\n"
      ",,,\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  auto rows = table.value()->Scan();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 3u);
  EXPECT_EQ(rows.value()[0][0].AsInt(), -2147483648LL);
  EXPECT_EQ(rows.value()[0][1].AsInt(), 9223372036854775807LL);
  EXPECT_DOUBLE_EQ(rows.value()[0][2].AsDouble(), 1500.0);
  EXPECT_TRUE(rows.value()[0][3].AsBool());
  EXPECT_EQ(rows.value()[1][0].AsInt(), 2147483647LL);
  EXPECT_EQ(rows.value()[1][1].AsInt(), -42);
  EXPECT_DOUBLE_EQ(rows.value()[1][2].AsDouble(), -0.25);
  EXPECT_FALSE(rows.value()[1][3].AsBool());
  for (const Value& v : rows.value()[2]) EXPECT_TRUE(v.IsNull());
}

// ------------------------------ SPL generation ------------------------------

TEST(SplunkTest, GeneratesSpl) {
  Figure2Catalog catalog = MakeFigure2Catalog();
  Connection conn{Connection::Config{catalog.root}};
  auto logical = conn.ParseQuery(
      "SELECT * FROM splunk.orders WHERE units > 25");
  ASSERT_TRUE(logical.ok());
  auto physical = conn.OptimizePlan(logical.value());
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  RelNodePtr node = physical.value();
  while (node != nullptr &&
         node->convention() != SplunkSchema::SplunkConvention()) {
    node = node->num_inputs() > 0 ? node->input(0) : nullptr;
  }
  ASSERT_NE(node, nullptr);
  auto spl = SplunkGenerateSpl(node);
  ASSERT_TRUE(spl.ok()) << spl.status().ToString();
  EXPECT_EQ(spl.value(), "search index=orders | search units>25");
}

}  // namespace
}  // namespace calcite
