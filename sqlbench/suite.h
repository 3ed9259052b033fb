#ifndef SQLBENCH_SUITE_H_
#define SQLBENCH_SUITE_H_

// The benchmark's queries: the 12-query analytic suite, the parameterized
// short-query templates, result comparison, and checks of two suite
// queries against aggregates computed straight from the generator.

#include <cstdint>
#include <string>
#include <vector>

#include "tools/frameworks.h"
#include "tpch.h"

namespace sqlbench {

/// One query to run: `id` names its suite query or short-query template.
struct QuerySpec {
  std::string id;
  std::string sql;
};

/// The analytic suite in a fixed order: q01 q03 q05 q06 q12 q13 q14 topn
/// window setop distinct_agg range_lookup. Literals depend only on table
/// sizes, so every seed runs the same query text over different data.
std::vector<QuerySpec> SuiteQueries(const Dataset& data);

/// The short-query template ids, in stream order.
const std::vector<std::string>& ShortTemplateIds();

/// `per_template` instances of each short-query template, interleaved
/// round-robin; literals are drawn from `seed`.
std::vector<QuerySpec> ShortQueries(const Dataset& data, uint64_t seed,
                                    int per_template);

/// True if both results hold the same rows in any order, doubles equal to
/// 1e-9 relative tolerance. On a mismatch `why` says where.
bool SameRows(const calcite::QueryResult& got,
              const calcite::QueryResult& want, std::string* why);

/// Checks a q01 or q06 result against the generator's arrays; other ids
/// pass unchecked.
bool MatchesGenerator(const std::string& id, const calcite::QueryResult& got,
                      const Dataset& data, std::string* why);

}  // namespace sqlbench

#endif  // SQLBENCH_SUITE_H_
