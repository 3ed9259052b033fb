#include "tpch.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "schema/table.h"
#include "type/rel_data_type.h"

namespace sqlbench {

using calcite::Row;
using calcite::Value;

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0x100000001B3ull;
}

const std::vector<std::string> kRegions = {"AFRICA", "AMERICA", "ASIA",
                                           "EUROPE", "MIDDLE EAST"};
const std::vector<std::pair<std::string, int>> kNations = {
    {"ALGERIA", 0},   {"ARGENTINA", 1},  {"BRAZIL", 1},
    {"CANADA", 1},    {"EGYPT", 4},      {"ETHIOPIA", 0},
    {"FRANCE", 3},    {"GERMANY", 3},    {"INDIA", 2},
    {"INDONESIA", 2}, {"IRAN", 4},       {"IRAQ", 4},
    {"JAPAN", 2},     {"JORDAN", 4},     {"KENYA", 0},
    {"MOROCCO", 0},   {"MOZAMBIQUE", 0}, {"PERU", 1},
    {"CHINA", 2},     {"ROMANIA", 3},    {"SAUDI ARABIA", 4},
    {"VIETNAM", 2},   {"RUSSIA", 3},     {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1}};
const std::vector<std::string> kSegments = {"AUTOMOBILE", "BUILDING",
                                            "FURNITURE", "MACHINERY",
                                            "HOUSEHOLD"};
const std::vector<std::string> kPriorities = {
    "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"};
const std::vector<std::string> kShipModes = {"REG AIR", "AIR",  "RAIL", "SHIP",
                                             "TRUCK",   "MAIL", "FOB"};
const std::vector<std::string> kTypeSize = {"STANDARD", "SMALL",   "MEDIUM",
                                            "LARGE",    "ECONOMY", "PROMO"};
const std::vector<std::string> kTypeFinish = {"ANODIZED", "BURNISHED", "PLATED",
                                              "POLISHED", "BRUSHED"};
const std::vector<std::string> kTypeMetal = {"TIN", "NICKEL", "BRASS", "STEEL",
                                             "COPPER"};
const std::vector<std::string> kWords = {
    "furiously", "quickly", "carefully", "blithely", "slyly",   "final",
    "regular",   "express", "pending",   "ironic",   "special", "requests",
    "deposits",  "packages", "accounts", "theodolites"};

Column IntCol(std::string name) {
  Column c;
  c.name = std::move(name);
  c.type = ColType::kInt;
  return c;
}
Column DoubleCol(std::string name) {
  Column c;
  c.name = std::move(name);
  c.type = ColType::kDouble;
  return c;
}
Column StringCol(std::string name) {
  Column c;
  c.name = std::move(name);
  c.type = ColType::kString;
  return c;
}

std::string Numbered(const char* prefix, int64_t key) {
  std::string digits = std::to_string(key);
  return prefix + std::string(digits.size() < 9 ? 9 - digits.size() : 0, '0') +
         digits;
}

double Cents(int64_t cents) { return static_cast<double>(cents) / 100.0; }

int64_t Scaled(double base, double sf) {
  return std::max<int64_t>(1, std::llround(base * sf));
}

}  // namespace

const Column& TableData::col(const std::string& column_name) const {
  for (const Column& c : columns) {
    if (c.name == column_name) return c;
  }
  throw std::out_of_range("no column " + column_name);
}

std::vector<Row> TableData::ToRows() const {
  std::vector<Row> out(rows);
  for (size_t r = 0; r < rows; ++r) {
    Row& row = out[r];
    row.reserve(columns.size());
    for (const Column& c : columns) {
      switch (c.type) {
        case ColType::kInt:
          row.push_back(Value::Int(c.ints[r]));
          break;
        case ColType::kDouble:
          row.push_back(Value::Double(c.doubles[r]));
          break;
        case ColType::kString:
          row.push_back(Value::String(c.strings[r]));
          break;
      }
    }
  }
  return out;
}

calcite::RelDataTypePtr TableData::RowType() const {
  calcite::TypeFactory tf;
  std::vector<std::string> names;
  std::vector<calcite::RelDataTypePtr> types;
  for (const Column& c : columns) {
    names.push_back(c.name);
    switch (c.type) {
      case ColType::kInt:
        types.push_back(tf.CreateSqlType(calcite::SqlTypeName::kInteger));
        break;
      case ColType::kDouble:
        types.push_back(tf.CreateSqlType(calcite::SqlTypeName::kDouble));
        break;
      case ColType::kString:
        types.push_back(tf.CreateSqlType(calcite::SqlTypeName::kVarchar, 64));
        break;
    }
  }
  return tf.CreateStructType(names, types);
}

uint64_t TableData::Digest() const {
  uint64_t h = Mix(0xCBF29CE484222325ull, rows);
  for (const Column& c : columns) {
    for (size_t r = 0; r < rows; ++r) {
      switch (c.type) {
        case ColType::kInt:
          h = Mix(h, static_cast<uint64_t>(c.ints[r]));
          break;
        case ColType::kDouble: {
          uint64_t bits;
          static_assert(sizeof(bits) == sizeof(double));
          std::memcpy(&bits, &c.doubles[r], sizeof(bits));
          h = Mix(h, bits);
          break;
        }
        case ColType::kString: {
          uint64_t fnv = 0xCBF29CE484222325ull;
          for (unsigned char ch : c.strings[r]) fnv = (fnv ^ ch) * 0x100000001B3ull;
          h = Mix(h, fnv);
          break;
        }
      }
    }
  }
  return h;
}

const TableData& Dataset::table(const std::string& name) const {
  for (const TableData& t : tables) {
    if (t.name == name) return t;
  }
  throw std::out_of_range("no table " + name);
}

size_t Dataset::total_rows() const {
  size_t n = 0;
  for (const TableData& t : tables) n += t.rows;
  return n;
}

Dataset Generate(double sf, uint64_t seed) {
  Dataset data;
  const int64_t n_supplier = Scaled(10000, sf);
  const int64_t n_part = Scaled(200000, sf);
  const int64_t n_customer = Scaled(150000, sf);
  const int64_t n_orders = Scaled(1500000, sf);

  {
    TableData t{"region", 0, kRegions.size(), {}};
    Column key = IntCol("r_regionkey"), name = StringCol("r_name");
    for (size_t i = 0; i < kRegions.size(); ++i) {
      key.ints.push_back(static_cast<int64_t>(i));
      name.strings.push_back(kRegions[i]);
    }
    t.columns = {std::move(key), std::move(name)};
    data.tables.push_back(std::move(t));
  }
  {
    TableData t{"nation", 0, kNations.size(), {}};
    Column key = IntCol("n_nationkey"), name = StringCol("n_name"),
           region = IntCol("n_regionkey");
    for (size_t i = 0; i < kNations.size(); ++i) {
      key.ints.push_back(static_cast<int64_t>(i));
      name.strings.push_back(kNations[i].first);
      region.ints.push_back(kNations[i].second);
    }
    t.columns = {std::move(key), std::move(name), std::move(region)};
    data.tables.push_back(std::move(t));
  }
  {
    Rng rng(seed ^ 0x5151ull);
    TableData t{"supplier", 0, static_cast<size_t>(n_supplier), {}};
    Column key = IntCol("s_suppkey"), name = StringCol("s_name"),
           nation = IntCol("s_nationkey"), bal = DoubleCol("s_acctbal");
    for (int64_t k = 1; k <= n_supplier; ++k) {
      key.ints.push_back(k);
      name.strings.push_back(Numbered("Supplier#", k));
      nation.ints.push_back(rng.Uniform(0, 24));
      bal.doubles.push_back(Cents(rng.Uniform(-99999, 999999)));
    }
    t.columns = {std::move(key), std::move(name), std::move(nation),
                 std::move(bal)};
    data.tables.push_back(std::move(t));
  }
  std::vector<int64_t> retail_cents(static_cast<size_t>(n_part) + 1, 0);
  {
    Rng rng(seed ^ 0x9A97ull);
    TableData t{"part", 0, static_cast<size_t>(n_part), {}};
    Column key = IntCol("p_partkey"), brand = StringCol("p_brand"),
           type = StringCol("p_type"), size = IntCol("p_size"),
           price = DoubleCol("p_retailprice");
    for (int64_t k = 1; k <= n_part; ++k) {
      key.ints.push_back(k);
      brand.strings.push_back("Brand#" + std::to_string(rng.Uniform(1, 5)) +
                              std::to_string(rng.Uniform(1, 5)));
      type.strings.push_back(rng.Pick(kTypeSize) + " " +
                             rng.Pick(kTypeFinish) + " " +
                             rng.Pick(kTypeMetal));
      size.ints.push_back(rng.Uniform(1, 50));
      // TPC-H's retail price formula, in cents.
      retail_cents[static_cast<size_t>(k)] =
          90000 + (k / 10) % 20001 + 100 * (k % 1000);
      price.doubles.push_back(Cents(retail_cents[static_cast<size_t>(k)]));
    }
    t.columns = {std::move(key), std::move(brand), std::move(type),
                 std::move(size), std::move(price)};
    data.tables.push_back(std::move(t));
  }
  {
    Rng rng(seed ^ 0xC057ull);
    TableData t{"customer", 0, static_cast<size_t>(n_customer), {}};
    Column key = IntCol("c_custkey"), name = StringCol("c_name"),
           nation = IntCol("c_nationkey"), bal = DoubleCol("c_acctbal"),
           segment = StringCol("c_mktsegment");
    for (int64_t k = 1; k <= n_customer; ++k) {
      key.ints.push_back(k);
      name.strings.push_back(Numbered("Customer#", k));
      nation.ints.push_back(rng.Uniform(0, 24));
      bal.doubles.push_back(Cents(rng.Uniform(-99999, 999999)));
      segment.strings.push_back(rng.Pick(kSegments));
    }
    t.columns = {std::move(key), std::move(name), std::move(nation),
                 std::move(bal), std::move(segment)};
    data.tables.push_back(std::move(t));
  }
  {
    Rng rng(seed ^ 0x0DE5ull);
    TableData orders{"orders", 0, static_cast<size_t>(n_orders), {}};
    Column o_key = IntCol("o_orderkey"), o_cust = IntCol("o_custkey"),
           o_status = StringCol("o_orderstatus"),
           o_total = DoubleCol("o_totalprice"), o_date = IntCol("o_orderdate"),
           o_prio = StringCol("o_orderpriority"),
           o_ship = IntCol("o_shippriority"), o_comment = StringCol("o_comment");
    TableData lines{"lineitem", 0, 0, {}};
    Column l_id = IntCol("l_id"), l_order = IntCol("l_orderkey"),
           l_part = IntCol("l_partkey"), l_supp = IntCol("l_suppkey"),
           l_num = IntCol("l_linenumber"), l_qty = DoubleCol("l_quantity"),
           l_price = DoubleCol("l_extendedprice"),
           l_disc = DoubleCol("l_discount"), l_tax = DoubleCol("l_tax"),
           l_rflag = StringCol("l_returnflag"),
           l_lstatus = StringCol("l_linestatus"),
           l_ship = IntCol("l_shipdate"), l_commit = IntCol("l_commitdate"),
           l_receipt = IntCol("l_receiptdate"),
           l_mode = StringCol("l_shipmode");
    int64_t next_line = 1;
    for (int64_t k = 1; k <= n_orders; ++k) {
      // As in TPC-H, a third of the customers (keys divisible by 3) never
      // place an order.
      int64_t cust = rng.Uniform(1, n_customer);
      if (n_customer >= 3 && cust % 3 == 0) cust = cust == 3 ? 1 : cust - 1;
      const int64_t odate = rng.Uniform(kStartDate, kEndDate - 151);
      const int64_t nlines = rng.Uniform(1, 7);
      int64_t total_cents = 0;
      int64_t shipped = 0;
      for (int64_t n = 1; n <= nlines; ++n) {
        const int64_t part = rng.Uniform(1, n_part);
        const int64_t qty = rng.Uniform(1, 50);
        const int64_t disc = rng.Uniform(0, 10);
        const int64_t tax = rng.Uniform(0, 8);
        const int64_t ship = odate + rng.Uniform(1, 121);
        const int64_t commit = odate + rng.Uniform(30, 90);
        const int64_t receipt = ship + rng.Uniform(1, 30);
        const int64_t price_cents = qty * retail_cents[static_cast<size_t>(part)];
        total_cents += price_cents;
        l_id.ints.push_back(next_line++);
        l_order.ints.push_back(k);
        l_part.ints.push_back(part);
        l_supp.ints.push_back(rng.Uniform(1, n_supplier));
        l_num.ints.push_back(n);
        l_qty.doubles.push_back(static_cast<double>(qty));
        l_price.doubles.push_back(Cents(price_cents));
        l_disc.doubles.push_back(Cents(disc));
        l_tax.doubles.push_back(Cents(tax));
        l_rflag.strings.push_back(receipt <= kCurrentDate
                                      ? (rng.Uniform(0, 1) ? "R" : "A")
                                      : "N");
        const bool is_shipped = ship <= kCurrentDate;
        shipped += is_shipped;
        l_lstatus.strings.push_back(is_shipped ? "F" : "O");
        l_ship.ints.push_back(ship);
        l_commit.ints.push_back(commit);
        l_receipt.ints.push_back(receipt);
        l_mode.strings.push_back(rng.Pick(kShipModes));
      }
      o_key.ints.push_back(k);
      o_cust.ints.push_back(cust);
      o_status.strings.push_back(shipped == nlines ? "F"
                                 : shipped == 0    ? "O"
                                                   : "P");
      o_total.doubles.push_back(Cents(total_cents));
      o_date.ints.push_back(odate);
      o_prio.strings.push_back(rng.Pick(kPriorities));
      o_ship.ints.push_back(0);
      std::string comment = rng.Pick(kWords) + " " + rng.Pick(kWords);
      if (rng.Uniform(0, 99) < 2) comment += " special requests";
      o_comment.strings.push_back(std::move(comment));
    }
    orders.columns = {std::move(o_key),  std::move(o_cust), std::move(o_status),
                      std::move(o_total), std::move(o_date), std::move(o_prio),
                      std::move(o_ship), std::move(o_comment)};
    lines.rows = static_cast<size_t>(next_line - 1);
    lines.columns = {std::move(l_id),      std::move(l_order),
                     std::move(l_part),    std::move(l_supp),
                     std::move(l_num),     std::move(l_qty),
                     std::move(l_price),   std::move(l_disc),
                     std::move(l_tax),     std::move(l_rflag),
                     std::move(l_lstatus), std::move(l_ship),
                     std::move(l_commit),  std::move(l_receipt),
                     std::move(l_mode)};
    data.tables.push_back(std::move(orders));
    data.tables.push_back(std::move(lines));
  }
  return data;
}

Catalog BuildMemCatalog(const Dataset& data) {
  Catalog catalog;
  catalog.schema = std::make_shared<calcite::Schema>();
  for (const TableData& t : data.tables) {
    auto table = std::make_shared<calcite::MemTable>(t.RowType(), t.ToRows());
    calcite::TableStats stats;
    stats.row_count = static_cast<double>(t.rows);
    stats.unique_keys = {{t.key_column}};
    table->set_statistic(stats);
    catalog.schema->AddTable(t.name, table);
  }
  return catalog;
}

calcite::Result<Catalog> BuildDiskCatalog(const Dataset& data,
                                          const std::string& dir,
                                          DiskBuildTimes* times) {
  using Clock = std::chrono::steady_clock;
  auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  Catalog catalog;
  catalog.schema = std::make_shared<calcite::Schema>();
  for (const TableData& t : data.tables) {
    auto created = calcite::storage::DiskTable::Create(
        dir + "/" + t.name + ".pages", t.RowType(), t.key_column);
    if (!created.ok()) return created.status();
    std::shared_ptr<calcite::storage::DiskTable> table = created.value();
    auto start = Clock::now();
    calcite::Status st = table->InsertRows(t.ToRows());
    times->insert_s += seconds_since(start);
    if (!st.ok()) return st;
    start = Clock::now();
    st = table->Analyze();
    times->analyze_s += seconds_since(start);
    if (!st.ok()) return st;
    start = Clock::now();
    st = table->Flush();
    times->flush_s += seconds_since(start);
    if (!st.ok()) return st;
    catalog.schema->AddTable(t.name, table);
    catalog.disk_tables.push_back(std::move(table));
  }
  return catalog;
}

double MemBytesPerRow(const Dataset& data) {
  // What the boxed rows of a MemTable occupy: the row vector's cells plus
  // any string payload too long for the small-string buffer.
  const std::string probe;
  const size_t inline_chars = probe.capacity();
  double bytes = 0;
  for (const TableData& t : data.tables) {
    bytes += static_cast<double>(t.rows) *
             (sizeof(Row) + t.columns.size() * sizeof(Value));
    for (const Column& c : t.columns) {
      for (const std::string& s : c.strings) {
        if (s.size() > inline_chars) bytes += static_cast<double>(s.size() + 1);
      }
    }
  }
  return bytes / static_cast<double>(data.total_rows());
}

uint64_t DiskReads(const Catalog& catalog) {
  uint64_t n = 0;
  for (const auto& t : catalog.disk_tables) n += t->buffer_pool().disk_reads();
  return n;
}

uint64_t DiskWrites(const Catalog& catalog) {
  uint64_t n = 0;
  for (const auto& t : catalog.disk_tables) n += t->buffer_pool().disk_writes();
  return n;
}

}  // namespace sqlbench
