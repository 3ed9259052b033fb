// sqlbench: the end-to-end SQL benchmark. One workload per process:
//
//   sqlbench --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
//            [--spans FILE]
//
// Untraced (--trace 0), it reports what a user of the engine sees: set-up
// time, the cold first pass, throughput and latency of a closed loop with
// one client, failures, memory and storage footprint. Traced (--trace 1),
// it runs the same queries through each layer's public entry point in turn
// (parse, convert, heuristic phase, Volcano phase, execute) and reports
// per-layer time and counts. Every result of either run is checked against
// a reference execution made before timing starts. The last line of stdout
// is the result as one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "plan/hep_planner.h"
#include "plan/volcano_planner.h"
#include "rel/rel_writer.h"
#include "rules/core_rules.h"
#include "sql/parser.h"
#include "sql/sql_to_rel.h"
#include "suite.h"
#include "tools/frameworks.h"
#include "tpch.h"

namespace sqlbench {
namespace {

using calcite::Connection;
using calcite::QueryResult;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Min(const std::vector<double>& v) { return Quantile(v, 0); }

double Max(const std::vector<double>& v) { return Quantile(v, 1); }

struct Workload {
  const char* name;
  double scale_factor;
  bool disk;
  size_t threads;
  bool short_stream;
  /// Catalog builds per untraced run; setup_s is their median. A small
  /// catalog builds in milliseconds, so it takes more of them.
  int setups;
};

// Why each workload exists, its sizes and which layers it loads are in
// sqlbench/WORKLOADS.md.
constexpr Workload kWorkloads[] = {
    {"olap_mem", 0.02, false, 1, false, 11},
    {"olap_par", 0.02, false, 4, false, 11},
    {"olap_disk", 0.02, true, 1, false, 3},
    {"short_queries", 0.001, false, 1, true, 31},
};

/// Cold first passes per untraced run (one on each of the first builds);
/// first_pass_s sums each query's best latency over them.
constexpr int kFirstPasses = 5;
/// Instances of each short-query template in one pass of the stream.
constexpr int kShortPerTemplate = 50;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string tmp;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--tmp") {
      args->tmp = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         !args->workload.empty() && !args->tmp.empty();
}

/// A directory for page files, removed with everything in it on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/sqlbench-XXXXXX";
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Configuration of the reference execution every timed result is checked
/// against: row-at-a-time, no columnar kernels, no fusion, serial, heap
/// scans only, over MemTables.
calcite::ExecOptions ReferenceOptions() {
  calcite::ExecOptions options;
  options.batch_size = 1;
  options.enable_columnar = false;
  options.enable_fusion = false;
  options.num_threads = 1;
  options.access_path = calcite::AccessPath::kForceHeap;
  return options;
}

/// Reference results, one per query; nullopt where the reference run
/// failed or disagreed with the generator, so that query can never pass.
using Expected = std::vector<std::optional<QueryResult>>;

Expected ReferenceResults(const Dataset& data,
                          const std::vector<QuerySpec>& queries) {
  Catalog ref = BuildMemCatalog(data);
  Connection::Config config;
  config.schema = ref.schema;
  config.exec_options = ReferenceOptions();
  Connection conn(config);
  Expected out;
  for (const QuerySpec& q : queries) {
    auto result = conn.Query(q.sql);
    std::string why;
    if (!result.ok()) {
      std::fprintf(stderr, "reference %s failed: %s\n", q.id.c_str(),
                   result.status().message().c_str());
      out.emplace_back();
    } else if (!MatchesGenerator(q.id, result.value(), data, &why)) {
      std::fprintf(stderr, "reference %s\n", why.c_str());
      out.emplace_back();
    } else {
      out.emplace_back(std::move(result).value());
    }
  }
  return out;
}

/// Counts attempts and failures (errors and wrong results).
struct Tally {
  long attempted = 0;
  long failed = 0;

  /// Records one attempt; true if `got` matches `want`.
  bool Check(const std::string& id, const calcite::Result<QueryResult>& got,
             const std::optional<QueryResult>& want) {
    ++attempted;
    std::string why;
    if (!got.ok()) {
      why = "error: " + got.status().message();
    } else if (!want.has_value()) {
      why = "no reference result";
    } else if (SameRows(got.value(), *want, &why)) {
      return true;
    }
    if (++failed <= 5) std::fprintf(stderr, "%s: %s\n", id.c_str(), why.c_str());
    return false;
  }
};

Connection::Config ConfigFor(const Workload& w, const Catalog& catalog) {
  Connection::Config config;
  config.schema = catalog.schema;
  config.exec_options.num_threads = w.threads;
  return config;
}

double DirectoryMb(const std::string& dir) {
  double bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    bytes += static_cast<double>(entry.file_size());
  }
  return bytes / (1024.0 * 1024.0);
}

/// One JSON metric entry.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(tally.attempted) +
                    ", \"failed\": " + std::to_string(tally.failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Runs every query once through Connection::Query, checking each result;
/// returns the time the pass spent in queries, in seconds. `latency_ms`,
/// when given, receives each successful query's latency at its index.
double RunPass(Connection& conn, const std::vector<QuerySpec>& queries,
               const Expected& expected, Tally* tally,
               std::vector<std::vector<double>>* latency_ms) {
  double pass_s = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto start = Clock::now();
    auto result = conn.Query(queries[i].sql);
    const double s = SecondsSince(start);
    pass_s += s;
    if (tally->Check(queries[i].id, result, expected[i]) &&
        latency_ms != nullptr) {
      (*latency_ms)[i].push_back(s * 1e3);
    }
  }
  return pass_s;
}

// ------------------------------ untraced run ------------------------------

int RunUntraced(const Workload& w, const Args& args, const Dataset& data,
                const std::vector<QuerySpec>& queries,
                const Expected& expected) {
  Tally tally;
  std::vector<double> setup_s;
  std::vector<std::vector<double>> cold_ms(queries.size());
  std::vector<std::vector<double>> latency_ms(queries.size());
  double file_mb = 0;
  // The timed loop runs on the first catalog built: the later builds only
  // add set-up and cold-pass samples. Run on a catalog built after many
  // others, whose freed memory its rows reuse, the loop's speed varied by
  // a quarter from run to run.
  for (int i = 0; i < w.setups; ++i) {
    std::unique_ptr<TempDir> dir;
    if (w.disk) {
      dir = std::make_unique<TempDir>(args.tmp);
      if (dir->path().empty()) {
        std::fprintf(stderr, "cannot create a directory under %s\n",
                     args.tmp.c_str());
        return 1;
      }
    }
    DiskBuildTimes times;
    const auto start = Clock::now();
    auto built = w.disk ? BuildDiskCatalog(data, dir->path(), &times)
                        : calcite::Result<Catalog>(BuildMemCatalog(data));
    setup_s.push_back(SecondsSince(start));
    if (!built.ok()) {
      std::fprintf(stderr, "catalog build failed: %s\n",
                   built.status().message().c_str());
      return 1;
    }
    if (w.disk) file_mb = DirectoryMb(dir->path());
    Connection conn(ConfigFor(w, built.value()));
    if (i < kFirstPasses) RunPass(conn, queries, expected, &tally, &cold_ms);
    if (i > 0) continue;
    const auto loop_start = Clock::now();
    do {
      RunPass(conn, queries, expected, &tally, &latency_ms);
    } while (SecondsSince(loop_start) < args.seconds);
  }

  // Each query instance (one of the 12 suite queries, or one short-query
  // instance of the stream) is summarised by its best latency over the
  // passes. Interference from a shared host only ever adds time, and comes
  // and goes within seconds, so the best of many passes repeats from run to
  // run where a median does not. The percentiles are taken over instances
  // at their best latency; the geometric mean is over query ids (suite
  // query or template), each at the median over its instances; qps is the
  // throughput of a pass at those latencies; the cold pass sums each
  // query's best latency over the cold passes.
  double first_pass_s = 0;
  for (const std::vector<double>& samples : cold_ms) {
    first_pass_s += Min(samples) / 1e3;
  }
  size_t timed = 0;
  double best_pass_ms = 0;
  std::vector<double> instance_ms;
  std::map<std::string, std::vector<double>> id_ms;
  for (size_t i = 0; i < queries.size(); ++i) {
    timed += latency_ms[i].size();
    if (latency_ms[i].empty()) continue;
    const double best = Min(latency_ms[i]);
    best_pass_ms += best;
    instance_ms.push_back(best);
    id_ms[queries[i].id].push_back(best);
  }
  double log_sum = 0;
  for (const auto& [id, samples] : id_ms) log_sum += std::log(Median(samples));
  const double ids = static_cast<double>(id_ms.size());
  const double bytes_per_row =
      w.disk ? file_mb * 1024.0 * 1024.0 / static_cast<double>(data.total_rows())
             : MemBytesPerRow(data);
  const double ok = static_cast<double>(tally.attempted - tally.failed);
  std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"first_pass_s", first_pass_s, "s"},
      {"qps", static_cast<double>(instance_ms.size()) / best_pass_ms * 1e3, "1/s"},
      {"latency_geomean_ms", ids > 0 ? std::exp(log_sum / ids) : 0, "ms"},
      {"latency_p50_ms", Quantile(instance_ms, 0.5), "ms"},
      {"latency_p90_ms", Quantile(instance_ms, 0.9), "ms"},
      {"latency_p99_ms", Quantile(instance_ms, 0.99), "ms"},
      {"success_frac", ok / static_cast<double>(tally.attempted), "fraction"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"bytes_per_row", bytes_per_row, "B"},
  };
  std::fprintf(stderr,
               "%s: %zu timed queries over %zu instances, %ld attempted, "
               "%ld failed\n",
               w.name, timed, instance_ms.size(), tally.attempted,
               tally.failed);
  PrintResult(tally.failed == 0, tally, metrics);
  return 0;
}

// ------------------------------- traced run -------------------------------

/// One span: a layer call (or the whole query, stage "query") made while
/// running query `query` of traced pass `pass`. `parent` indexes the
/// query's span, -1 for a query span.
struct Span {
  std::string stage;
  int pass;
  int query;
  int parent;
  Clock::time_point start;
  Clock::time_point end;
};

/// Per-query counts of one staged run.
struct StagedCounts {
  int fires = 0;
  int sets = 0;
  int exprs = 0;
  size_t rows_out = 0;
  double source_rows = 0;
  double cpu_s = 0;
  uint64_t disk_reads = 0;
};

class Tracer {
 public:
  int Begin(const std::string& stage, int pass, int query, int parent) {
    spans_.push_back({stage, pass, query, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end = Clock::now(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

double SourceRows(const calcite::RelNode& node) {
  double rows = 0;
  if (const auto* scan = dynamic_cast<const calcite::TableScan*>(&node)) {
    rows += scan->table()->GetStatistic().row_count.value_or(0);
  }
  for (const calcite::RelNodePtr& input : node.inputs()) rows += SourceRows(*input);
  return rows;
}

/// What a staged run produced: the physical plan and, if executed, rows.
struct Staged {
  calcite::Result<calcite::RelNodePtr> plan = calcite::Status::Internal("unset");
  calcite::Result<QueryResult> result = calcite::Status::Internal("unset");
};

/// The staged pipeline: the same calls, in the same order, that
/// Connection::OptimizePlan and Connection::ExecutePlan make, each wrapped
/// in a span. `execute` false stops after planning.
Staged RunStaged(Connection& conn, const Connection::Config& config,
                 const Catalog& catalog, const std::string& sql, bool execute,
                 Tracer* tracer, int pass, int query, StagedCounts* counts) {
  Staged out;
  const int root = tracer->Begin("query", pass, query, -1);
  auto finish = [&](calcite::Status status) {
    tracer->End(root);
    out.plan = status;
    out.result = status;
    return out;
  };
  int span = tracer->Begin("parse", pass, query, root);
  auto ast = calcite::SqlParser::Parse(sql);
  tracer->End(span);
  if (!ast.ok()) return finish(ast.status());

  span = tracer->Begin("convert", pass, query, root);
  calcite::SqlToRelConverter converter(config.schema, conn.context());
  auto logical = converter.Convert(ast.value());
  tracer->End(span);
  if (!logical.ok()) return finish(logical.status());

  calcite::PlannerContext* context = conn.context();
  span = tracer->Begin("logical", pass, query, root);
  calcite::HepPlanner hep(calcite::StandardLogicalRules(), context);
  auto rewritten = hep.Optimize(logical.value());
  context->metadata()->ClearCache();
  tracer->End(span);
  if (!rewritten.ok()) return finish(rewritten.status());

  span = tracer->Begin("volcano", pass, query, root);
  calcite::RelTraitSet required(calcite::Convention::Enumerable());
  if (const auto* sort =
          dynamic_cast<const calcite::Sort*>(logical.value().get())) {
    required = required.WithCollation(sort->collation());
  }
  calcite::VolcanoPlanner volcano(conn.PhysicalRules(), context,
                                  config.volcano_options);
  auto physical = volcano.Optimize(rewritten.value(), required);
  context->metadata()->ClearCache();
  tracer->End(span);
  if (!physical.ok()) return finish(physical.status());
  counts->fires = volcano.rule_fire_count();
  counts->sets = volcano.set_count();
  counts->exprs = volcano.expr_count();
  out.plan = physical.value();
  if (!execute) {
    tracer->End(root);
    return out;
  }

  const uint64_t reads_before = DiskReads(catalog);
  const double cpu_before = CpuSeconds();
  span = tracer->Begin("execute", pass, query, root);
  auto puller = physical.value()->ExecuteBatched(config.exec_options.Normalized());
  calcite::Result<std::vector<calcite::Row>> rows =
      puller.ok() ? calcite::DrainBatches(puller.value())
                  : calcite::Result<std::vector<calcite::Row>>(puller.status());
  tracer->End(span);
  counts->cpu_s = CpuSeconds() - cpu_before;
  counts->disk_reads = DiskReads(catalog) - reads_before;
  counts->source_rows = SourceRows(*physical.value());
  tracer->End(root);
  if (!rows.ok()) {
    out.result = rows.status();
    return out;
  }
  counts->rows_out = rows.value().size();
  out.result = QueryResult{physical.value()->row_type(), std::move(rows).value()};
  return out;
}

double SpanMs(const Span& s) {
  return std::chrono::duration<double, std::milli>(s.end - s.start).count();
}

void WriteSpans(const std::string& path, const Tracer& tracer,
                const std::vector<QuerySpec>& queries) {
  if (path.empty()) return;
  std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path);
  const auto origin = tracer.spans().empty() ? Clock::now()
                                             : tracer.spans().front().start;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    out << "{\"id\": " << i << ", \"parent\": " << s.parent << ", \"stage\": \""
        << s.stage << "\", \"pass\": " << s.pass << ", \"query\": \""
        << queries[static_cast<size_t>(s.query)].id << "\", \"start_us\": "
        << us(s.start) << ", \"end_us\": " << us(s.end) << "}\n";
  }
}

int RunTraced(const Workload& w, const Args& args, const Dataset& data,
              const std::vector<QuerySpec>& queries, const Expected& expected) {
  Tally tally;
  // The storage write path: the disk catalog of olap_disk itself, or a disk
  // copy of the workload's data built only for these metrics.
  TempDir dir(args.tmp);
  if (dir.path().empty()) {
    std::fprintf(stderr, "cannot create a directory under %s\n",
                 args.tmp.c_str());
    return 1;
  }
  DiskBuildTimes times;
  auto disk = BuildDiskCatalog(data, dir.path(), &times);
  if (!disk.ok()) {
    std::fprintf(stderr, "disk catalog build failed: %s\n",
                 disk.status().message().c_str());
    return 1;
  }
  const double file_mb = DirectoryMb(dir.path());
  const double disk_writes = static_cast<double>(DiskWrites(disk.value()));
  Catalog catalog = std::move(disk).value();
  if (!w.disk) catalog = BuildMemCatalog(data);

  const Connection::Config config = ConfigFor(w, catalog);
  Connection conn(config);
  RunPass(conn, queries, expected, &tally, nullptr);  // warm-up

  // Plan-identity guard: the staged pipeline must produce the plan that
  // Connection::OptimizePlan produces, or the breakdown measures something
  // else than the production pipeline.
  Tracer guard_tracer;
  for (size_t i = 0; i < queries.size(); ++i) {
    StagedCounts ignored;
    Staged staged = RunStaged(conn, config, catalog, queries[i].sql, false,
                              &guard_tracer, -1, static_cast<int>(i), &ignored);
    auto logical = conn.ParseQuery(queries[i].sql);
    auto optimized = logical.ok() ? conn.OptimizePlan(logical.value())
                                  : calcite::Result<calcite::RelNodePtr>(
                                        logical.status());
    if (!staged.plan.ok() || !optimized.ok() ||
        calcite::ExplainPlan(staged.plan.value()) !=
            calcite::ExplainPlan(optimized.value())) {
      std::fprintf(stderr, "plan-identity guard failed for %s\n",
                   queries[i].id.c_str());
      return 1;
    }
  }

  Tracer tracer;
  std::vector<double> untraced_s, traced_s;
  std::vector<std::vector<StagedCounts>> pass_counts;
  const auto loop_start = Clock::now();
  int pass = 0;
  do {
    untraced_s.push_back(RunPass(conn, queries, expected, &tally, nullptr));
    std::vector<StagedCounts> counts(queries.size());
    double pass_s = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto start = Clock::now();
      Staged staged = RunStaged(conn, config, catalog, queries[i].sql, true,
                                &tracer, pass, static_cast<int>(i), &counts[i]);
      pass_s += SecondsSince(start);
      tally.Check(queries[i].id, staged.result, expected[i]);
    }
    traced_s.push_back(pass_s);
    pass_counts.push_back(std::move(counts));
    ++pass;
  } while (SecondsSince(loop_start) < args.seconds);

  // Counts must repeat exactly from pass to pass (serial reads included);
  // a count that drifts cannot back a claim.
  bool repeat_ok = true;
  for (const auto& counts : pass_counts) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const StagedCounts& a = pass_counts.front()[i];
      const StagedCounts& b = counts[i];
      if (a.fires != b.fires || a.sets != b.sets || a.exprs != b.exprs ||
          a.rows_out != b.rows_out ||
          (w.threads == 1 && a.disk_reads != b.disk_reads)) {
        std::fprintf(stderr, "count drift on %s\n", queries[i].id.c_str());
        repeat_ok = false;
      }
    }
  }

  // Per-pass stage totals, then the median over passes.
  std::map<std::string, std::vector<double>> stage_pass_ms;
  std::vector<std::map<std::string, double>> per_pass(static_cast<size_t>(pass));
  for (const Span& s : tracer.spans()) {
    if (s.parent >= 0) per_pass[static_cast<size_t>(s.pass)][s.stage] += SpanMs(s);
  }
  const double nq = static_cast<double>(queries.size());
  for (auto& stages : per_pass) {
    for (const char* stage : {"parse", "convert", "logical", "volcano", "execute"}) {
      stage_pass_ms[stage].push_back(stages[stage] / nq);
    }
  }
  std::vector<double> source_rate, cpu_per_wall;
  for (size_t p = 0; p < pass_counts.size(); ++p) {
    double source = 0, cpu = 0;
    for (const StagedCounts& c : pass_counts[p]) {
      source += c.source_rows;
      cpu += c.cpu_s;
    }
    const double exec_s = per_pass[p]["execute"] / 1e3;
    source_rate.push_back(source / exec_s);
    cpu_per_wall.push_back(cpu / exec_s);
  }
  double fires = 0, sets = 0, exprs = 0, rows_out = 0, reads = 0,
         range_reads = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const StagedCounts& c = pass_counts.front()[i];
    fires += c.fires;
    sets += c.sets;
    exprs += c.exprs;
    rows_out += static_cast<double>(c.rows_out);
    reads += static_cast<double>(c.disk_reads);
    if (queries[i].id == "range_lookup") {
      range_reads += static_cast<double>(c.disk_reads);
    }
  }

  // The other query family, over this workload's catalog: the short-query
  // templates are planned (not executed) on the olap catalogs, and the
  // suite is executed on the short-query catalog, so every per-template
  // and per-query metric is measured on every workload.
  const std::vector<QuerySpec> others =
      w.short_stream ? SuiteQueries(data)
                     : ShortQueries(data, args.seed, kShortPerTemplate / 10);
  const Expected others_expected =
      w.short_stream ? ReferenceResults(data, others) : Expected();
  Tracer other_tracer;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < others.size(); ++i) {
      StagedCounts ignored;
      Staged staged = RunStaged(conn, config, catalog, others[i].sql,
                                w.short_stream, &other_tracer, round,
                                static_cast<int>(i), &ignored);
      if (w.short_stream) {
        tally.Check(others[i].id, staged.result, others_expected[i]);
      } else if (!staged.plan.ok()) {
        tally.Check(others[i].id, staged.plan.status(), std::nullopt);
      }
    }
  }
  // Execute time per query id (best over passes), planning time (both
  // phases) per template id (each instance's best, median over instances).
  std::map<std::string, std::vector<double>> exec_ms_by_id, plan_us_by_id;
  for (const auto& [t, qs] : {std::pair{&tracer, &queries},
                              std::pair{&other_tracer, &others}}) {
    std::map<std::pair<int, int>, double> plan_ms;  // (query, pass) -> ms
    for (const Span& s : t->spans()) {
      const std::string& id = (*qs)[static_cast<size_t>(s.query)].id;
      if (s.stage == "execute") exec_ms_by_id[id].push_back(SpanMs(s));
      if (s.stage == "logical" || s.stage == "volcano") {
        plan_ms[{s.query, s.pass}] += SpanMs(s);
      }
    }
    std::map<int, std::vector<double>> plan_us_by_query;
    for (const auto& [key, ms] : plan_ms) {
      plan_us_by_query[key.first].push_back(ms * 1e3);
    }
    for (const auto& [query, us] : plan_us_by_query) {
      plan_us_by_id[(*qs)[static_cast<size_t>(query)].id].push_back(Min(us));
    }
  }

  std::vector<Metric> metrics = {
      {"sql.parse_ms", Min(stage_pass_ms["parse"]), "ms"},
      {"sql.convert_ms", Min(stage_pass_ms["convert"]), "ms"},
      {"plan.logical_ms", Min(stage_pass_ms["logical"]), "ms"},
      {"plan.volcano_ms", Min(stage_pass_ms["volcano"]), "ms"},
      {"plan.volcano_fires", fires, "count"},
      {"plan.volcano_sets", sets, "count"},
      {"plan.volcano_exprs", exprs, "count"},
  };
  for (const std::string& id : ShortTemplateIds()) {
    metrics.push_back({"plan." + id + "_us", Median(plan_us_by_id[id]), "us"});
  }
  metrics.push_back({"exec.execute_ms", Min(stage_pass_ms["execute"]), "ms"});
  for (const QuerySpec& q : w.short_stream ? others : queries) {
    metrics.push_back({"exec." + q.id + "_ms", Min(exec_ms_by_id[q.id]), "ms"});
  }
  metrics.push_back({"exec.rows_out", rows_out, "count"});
  metrics.push_back({"exec.source_rows_per_s", Max(source_rate), "1/s"});
  metrics.push_back({"exec.cpu_per_wall", Median(cpu_per_wall), "ratio"});
  metrics.push_back({"storage.disk_reads", reads, "count"});
  metrics.push_back({"storage.disk_writes", disk_writes, "count"});
  metrics.push_back({"storage.range_lookup_reads", range_reads, "count"});
  metrics.push_back({"storage.insert_s", times.insert_s, "s"});
  metrics.push_back({"storage.analyze_s", times.analyze_s, "s"});
  metrics.push_back({"storage.flush_s", times.flush_s, "s"});
  metrics.push_back({"storage.file_mb", file_mb, "MB"});
  metrics.push_back({"trace.overhead_pct",
                     (Min(traced_s) / Min(untraced_s) - 1.0) * 100.0,
                     "%"});

  WriteSpans(args.spans, tracer, queries);
  std::string digests;
  for (const TableData& t : data.tables) {
    digests += (digests.empty() ? "" : ", ") + std::string("\"") + t.name +
               "\": \"" + std::to_string(t.Digest()) + "\"";
  }
  std::printf(
      "sqlbench.counts {\"digests\": {%s}, \"exec.rows_out\": %.0f, "
      "\"plan.volcano_fires\": %.0f, \"plan.volcano_sets\": %.0f, "
      "\"plan.volcano_exprs\": %.0f, \"storage.disk_reads\": %.0f, "
      "\"storage.disk_writes\": %.0f, \"storage.range_lookup_reads\": %.0f}\n",
      digests.c_str(), rows_out, fires, sets, exprs, reads, disk_writes,
      range_reads);
  std::fprintf(stderr, "%s traced: %d passes, %ld attempted, %ld failed\n",
               w.name, pass, tally.attempted, tally.failed);
  PrintResult(tally.failed == 0 && repeat_ok, tally, metrics);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sqlbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --tmp DIR [--spans FILE]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Dataset data = Generate(w->scale_factor, args.seed);
  const std::vector<QuerySpec> queries =
      w->short_stream ? ShortQueries(data, args.seed, kShortPerTemplate)
                      : SuiteQueries(data);
  const Expected expected = ReferenceResults(data, queries);
  return args.trace ? RunTraced(*w, args, data, queries, expected)
                    : RunUntraced(*w, args, data, queries, expected);
}

}  // namespace
}  // namespace sqlbench

int main(int argc, char** argv) { return sqlbench::Main(argc, argv); }
