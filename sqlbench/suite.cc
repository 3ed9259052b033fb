#include "suite.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace sqlbench {

using calcite::QueryResult;
using calcite::Row;
using calcite::Value;

namespace {

constexpr int64_t kQ01ShipCutoff = 10350;  // 1998-05-04
constexpr int64_t kYear1994 = 8766;        // 1994-01-01
constexpr int64_t kQ03Date = 9204;         // 1995-03-15
constexpr int64_t kQ14Month = 9374;        // 1995-09-01

std::string Num(int64_t v) { return std::to_string(v); }

bool Close(double a, double b) {
  if (a == b) return true;
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

bool SameValue(const Value& a, const Value& b) {
  if (a.IsNull() || b.IsNull()) return a.IsNull() && b.IsNull();
  if (a.is_double() || b.is_double()) {
    return a.is_numeric() && b.is_numeric() && Close(a.AsDouble(), b.AsDouble());
  }
  return a == b;
}

std::vector<Row> Sorted(const std::vector<Row>& rows) {
  std::vector<Row> out = rows;
  std::sort(out.begin(), out.end(), [](const Row& x, const Row& y) {
    return std::lexicographical_compare(
        x.begin(), x.end(), y.begin(), y.end(),
        [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  });
  return out;
}

/// Indexes of the rows of `t` that pass `keep`.
template <typename Pred>
std::vector<size_t> Matching(const TableData& t, Pred keep) {
  std::vector<size_t> out;
  for (size_t r = 0; r < t.rows; ++r) {
    if (keep(r)) out.push_back(r);
  }
  return out;
}

}  // namespace

std::vector<QuerySpec> SuiteQueries(const Dataset& data) {
  const int64_t n_orders = static_cast<int64_t>(data.table("orders").rows);
  // A 1% slice of the order keys: selective enough that the cost model of
  // an ANALYZEd DiskTable takes the B-tree over the heap.
  const int64_t range_lo = n_orders / 2;
  const int64_t range_hi = range_lo + std::max<int64_t>(1, n_orders / 100);
  return {
      {"q01",
       "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
       "SUM(l_extendedprice) AS sum_base_price, "
       "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
       "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
       "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
       "AVG(l_discount) AS avg_disc, COUNT(*) AS count_order "
       "FROM lineitem WHERE l_shipdate <= " +
           Num(kQ01ShipCutoff) +
           " GROUP BY l_returnflag, l_linestatus "
           "ORDER BY l_returnflag, l_linestatus"},
      {"q03",
       "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
       "o_orderdate, o_shippriority "
       "FROM customer JOIN orders ON c_custkey = o_custkey "
       "JOIN lineitem ON l_orderkey = o_orderkey "
       "WHERE c_mktsegment = 'BUILDING' AND o_orderdate < " +
           Num(kQ03Date) + " AND l_shipdate > " + Num(kQ03Date) +
           " GROUP BY l_orderkey, o_orderdate, o_shippriority "
           "ORDER BY revenue DESC, o_orderdate, l_orderkey LIMIT 10"},
      {"q05",
       "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
       "FROM customer JOIN orders ON c_custkey = o_custkey "
       "JOIN lineitem ON l_orderkey = o_orderkey "
       "JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
       "JOIN nation ON s_nationkey = n_nationkey "
       "JOIN region ON n_regionkey = r_regionkey "
       "WHERE r_name = 'ASIA' AND o_orderdate >= " +
           Num(kYear1994) + " AND o_orderdate < " + Num(kYear1994 + 365) +
           " GROUP BY n_name ORDER BY revenue DESC"},
      {"q06",
       "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
       "WHERE l_shipdate >= " +
           Num(kYear1994) + " AND l_shipdate < " + Num(kYear1994 + 365) +
           " AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"},
      {"q12",
       "SELECT l_shipmode, SUM(CASE WHEN o_orderpriority = '1-URGENT' OR "
       "o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS high_line_count, "
       "SUM(CASE WHEN o_orderpriority <> '1-URGENT' AND "
       "o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END) AS low_line_count "
       "FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
       "WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate "
       "AND l_shipdate < l_commitdate AND l_receiptdate >= " +
           Num(kYear1994) + " AND l_receiptdate < " + Num(kYear1994 + 365) +
           " GROUP BY l_shipmode ORDER BY l_shipmode"},
      {"q13",
       "SELECT c_count, COUNT(*) AS custdist FROM "
       "(SELECT c_custkey, COUNT(o_orderkey) AS c_count FROM customer "
       "LEFT JOIN (SELECT o_orderkey, o_custkey FROM orders "
       "WHERE o_comment NOT LIKE '%special%requests%') o "
       "ON c_custkey = o_custkey GROUP BY c_custkey) t "
       "GROUP BY c_count ORDER BY custdist DESC, c_count DESC"},
      {"q14",
       "SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%' "
       "THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END) / "
       "SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue "
       "FROM lineitem JOIN part ON l_partkey = p_partkey "
       "WHERE l_shipdate >= " +
           Num(kQ14Month) + " AND l_shipdate < " + Num(kQ14Month + 30)},
      {"topn",
       "SELECT l_id, l_orderkey, l_extendedprice FROM lineitem "
       "ORDER BY l_extendedprice DESC, l_id LIMIT 100"},
      {"window",
       "SELECT o_orderkey, o_custkey, COUNT(*) OVER (PARTITION BY o_custkey) "
       "AS orders_of_customer FROM orders WHERE o_orderdate < " +
           Num(kStartDate + 120)},
      {"setop",
       "SELECT c_custkey FROM customer EXCEPT SELECT o_custkey FROM orders"},
      {"distinct_agg",
       "SELECT l_suppkey, COUNT(DISTINCT l_partkey) AS parts FROM lineitem "
       "GROUP BY l_suppkey"},
      {"range_lookup",
       "SELECT COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders "
       "WHERE o_orderkey >= " +
           Num(range_lo) + " AND o_orderkey < " + Num(range_hi)},
  };
}

const std::vector<std::string>& ShortTemplateIds() {
  static const std::vector<std::string> ids = {
      "point", "join2", "join4", "join6", "agg_case", "topn_small"};
  return ids;
}

std::vector<QuerySpec> ShortQueries(const Dataset& data, uint64_t seed,
                                    int per_template) {
  const int64_t n_orders = static_cast<int64_t>(data.table("orders").rows);
  const int64_t n_customer = static_cast<int64_t>(data.table("customer").rows);
  const int64_t n_part = static_cast<int64_t>(data.table("part").rows);
  static const char* const kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                         "MIDDLE EAST"};
  Rng rng(seed ^ 0x51A7ull);
  std::vector<QuerySpec> out;
  for (int i = 0; i < per_template; ++i) {
    const int64_t day = rng.Uniform(kStartDate, kEndDate - 330);
    out.push_back({"point",
                   "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate "
                   "FROM orders WHERE o_orderkey = " +
                       Num(rng.Uniform(1, n_orders))});
    out.push_back({"join2",
                   "SELECT c_name, o_orderkey, o_totalprice FROM customer "
                   "JOIN orders ON c_custkey = o_custkey WHERE c_custkey = " +
                       Num(rng.Uniform(1, n_customer))});
    out.push_back(
        {"join4",
         "SELECT o_orderkey, p_type, l_quantity FROM customer "
         "JOIN orders ON c_custkey = o_custkey "
         "JOIN lineitem ON o_orderkey = l_orderkey "
         "JOIN part ON l_partkey = p_partkey WHERE c_custkey = " +
             Num(rng.Uniform(1, n_customer)) + " AND p_size > " + Num(rng.Uniform(1, 40))});
    out.push_back(
        {"join6",
         "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
         "FROM customer JOIN orders ON c_custkey = o_custkey "
         "JOIN lineitem ON l_orderkey = o_orderkey "
         "JOIN supplier ON l_suppkey = s_suppkey "
         "JOIN nation ON s_nationkey = n_nationkey "
         "JOIN region ON n_regionkey = r_regionkey WHERE r_name = '" +
             std::string(kRegions[rng.Uniform(0, 4)]) + "' AND o_orderdate >= " +
             Num(day) + " AND o_orderdate < " + Num(day + 90) +
             " GROUP BY n_name"});
    out.push_back(
        {"agg_case",
         "SELECT o_orderpriority, COUNT(*) AS n, SUM(CASE WHEN o_totalprice > " +
             Num(rng.Uniform(1000, 300000)) +
             " THEN 1 ELSE 0 END) AS big FROM orders WHERE o_orderdate >= " +
             Num(day) + " AND o_orderdate < " + Num(day + 180) +
             " GROUP BY o_orderpriority"});
    out.push_back({"topn_small",
                   "SELECT l_id, l_extendedprice FROM lineitem "
                   "WHERE l_partkey = " +
                       Num(rng.Uniform(1, n_part)) +
                       " ORDER BY l_extendedprice DESC, l_id LIMIT 5"});
  }
  return out;
}

bool SameRows(const QueryResult& got, const QueryResult& want,
              std::string* why) {
  if (got.rows.size() != want.rows.size()) {
    *why = "row count " + std::to_string(got.rows.size()) + " != " +
           std::to_string(want.rows.size());
    return false;
  }
  const std::vector<Row> a = Sorted(got.rows);
  const std::vector<Row> b = Sorted(want.rows);
  for (size_t r = 0; r < a.size(); ++r) {
    bool same = a[r].size() == b[r].size();
    for (size_t c = 0; same && c < a[r].size(); ++c) {
      same = SameValue(a[r][c], b[r][c]);
    }
    if (!same) {
      *why = "row " + calcite::RowToString(a[r]) + " != " +
             calcite::RowToString(b[r]);
      return false;
    }
  }
  return true;
}

bool MatchesGenerator(const std::string& id, const QueryResult& got,
                      const Dataset& data, std::string* why) {
  const TableData& li = data.table("lineitem");
  const Column& qty = li.col("l_quantity");
  const Column& price = li.col("l_extendedprice");
  const Column& disc = li.col("l_discount");
  const Column& tax = li.col("l_tax");
  const Column& ship = li.col("l_shipdate");
  QueryResult want;
  want.row_type = got.row_type;
  if (id == "q06") {
    double revenue = 0;
    for (size_t r : Matching(li, [&](size_t i) {
           return ship.ints[i] >= kYear1994 && ship.ints[i] < kYear1994 + 365 &&
                  disc.doubles[i] >= 0.05 && disc.doubles[i] <= 0.07 &&
                  qty.doubles[i] < 24;
         })) {
      revenue += price.doubles[r] * disc.doubles[r];
    }
    want.rows = {{Value::Double(revenue)}};
  } else if (id == "q01") {
    struct Sums {
      double qty = 0, base = 0, disc_price = 0, charge = 0, disc = 0;
      int64_t count = 0;
    };
    const Column& flag = li.col("l_returnflag");
    const Column& status = li.col("l_linestatus");
    std::map<std::pair<std::string, std::string>, Sums> groups;
    for (size_t r : Matching(li, [&](size_t i) {
           return ship.ints[i] <= kQ01ShipCutoff;
         })) {
      Sums& s = groups[{flag.strings[r], status.strings[r]}];
      const double dp = price.doubles[r] * (1 - disc.doubles[r]);
      s.qty += qty.doubles[r];
      s.base += price.doubles[r];
      s.disc_price += dp;
      s.charge += dp * (1 + tax.doubles[r]);
      s.disc += disc.doubles[r];
      ++s.count;
    }
    for (const auto& [key, s] : groups) {
      const double n = static_cast<double>(s.count);
      want.rows.push_back({Value::String(key.first), Value::String(key.second),
                           Value::Double(s.qty), Value::Double(s.base),
                           Value::Double(s.disc_price), Value::Double(s.charge),
                           Value::Double(s.qty / n), Value::Double(s.base / n),
                           Value::Double(s.disc / n), Value::Int(s.count)});
    }
  } else {
    return true;
  }
  if (!SameRows(got, want, why)) {
    *why = id + " disagrees with the generator: " + *why;
    return false;
  }
  return true;
}

}  // namespace sqlbench
