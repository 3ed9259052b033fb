#ifndef CALCITE_TESTS_TEST_SCHEMA_H_
#define CALCITE_TESTS_TEST_SCHEMA_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "schema/schema.h"
#include "schema/table.h"
#include "type/rel_data_type.h"
#include "type/value.h"

namespace calcite::testing {

/// Builds the sample "hr + sales" catalog used across tests and benches:
///
///   emps(empid INT, deptno INT, name VARCHAR, salary DOUBLE)   (5 rows)
///   depts(deptno INT, dept_name VARCHAR)                       (3 rows)
///   sales(saleid INT, productId INT, discount DOUBLE?, units INT)
///   products(productId INT, name VARCHAR)
inline SchemaPtr MakeTestSchema() {
  TypeFactory tf;
  auto schema = std::make_shared<Schema>();

  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto str_t = tf.CreateSqlType(SqlTypeName::kVarchar, 20);
  auto dbl_t = tf.CreateSqlType(SqlTypeName::kDouble);
  auto dbl_null_t = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);

  {
    auto row = tf.CreateStructType({"empid", "deptno", "name", "salary"},
                                   {int_t, int_t, str_t, dbl_t});
    std::vector<Row> rows = {
        {Value::Int(100), Value::Int(10), Value::String("Bill"),
         Value::Double(10000)},
        {Value::Int(110), Value::Int(10), Value::String("Theodore"),
         Value::Double(11500)},
        {Value::Int(150), Value::Int(20), Value::String("Sebastian"),
         Value::Double(7000)},
        {Value::Int(200), Value::Int(20), Value::String("Eric"),
         Value::Double(8000)},
        {Value::Int(210), Value::Int(30), Value::String("Anna"),
         Value::Double(9000)},
    };
    auto table = std::make_shared<MemTable>(row, std::move(rows));
    TableStats stat;
    stat.row_count = 5;
    stat.unique_keys = {{0}};
    table->set_statistic(stat);
    schema->AddTable("emps", table);
  }
  {
    auto row = tf.CreateStructType({"deptno", "dept_name"}, {int_t, str_t});
    std::vector<Row> rows = {
        {Value::Int(10), Value::String("Sales")},
        {Value::Int(20), Value::String("Engineering")},
        {Value::Int(30), Value::String("Marketing")},
    };
    auto table = std::make_shared<MemTable>(row, std::move(rows));
    TableStats stat;
    stat.row_count = 3;
    stat.unique_keys = {{0}};
    table->set_statistic(stat);
    schema->AddTable("depts", table);
  }
  {
    auto row = tf.CreateStructType({"saleid", "productId", "discount", "units"},
                                   {int_t, int_t, dbl_null_t, int_t});
    std::vector<Row> rows = {
        {Value::Int(1), Value::Int(1), Value::Double(0.1), Value::Int(3)},
        {Value::Int(2), Value::Int(1), Value::Null(), Value::Int(1)},
        {Value::Int(3), Value::Int(2), Value::Double(0.2), Value::Int(7)},
        {Value::Int(4), Value::Int(3), Value::Null(), Value::Int(2)},
        {Value::Int(5), Value::Int(2), Value::Double(0.0), Value::Int(4)},
        {Value::Int(6), Value::Int(3), Value::Double(0.5), Value::Int(9)},
    };
    auto table = std::make_shared<MemTable>(row, std::move(rows));
    TableStats stat;
    stat.row_count = 6;
    stat.unique_keys = {{0}};
    table->set_statistic(stat);
    schema->AddTable("sales", table);
  }
  {
    auto row = tf.CreateStructType({"productId", "name"}, {int_t, str_t});
    std::vector<Row> rows = {
        {Value::Int(1), Value::String("Widget")},
        {Value::Int(2), Value::String("Gadget")},
        {Value::Int(3), Value::String("Gizmo")},
    };
    auto table = std::make_shared<MemTable>(row, std::move(rows));
    TableStats stat;
    stat.row_count = 3;
    stat.unique_keys = {{0}};
    table->set_statistic(stat);
    schema->AddTable("products", table);
  }
  return schema;
}

/// A table that implements only Scan() — the paper's minimal adapter
/// contract: no columnar decomposition, no scan units, and the default
/// Table::OpenScan (filter after the full Scan() copy). The reference for
/// the tables that override OpenScan, and the shape the parallel executor
/// declines.
class ScanOnlyTable : public Table {
 public:
  ScanOnlyTable(RelDataTypePtr row_type, std::vector<Row> rows)
      : row_type_(std::move(row_type)), rows_(std::move(rows)) {}
  RelDataTypePtr GetRowType(const TypeFactory&) const override {
    return row_type_;
  }
  Result<std::vector<Row>> Scan() const override { return rows_; }

 private:
  RelDataTypePtr row_type_;
  std::vector<Row> rows_;
};

}  // namespace calcite::testing

#endif  // CALCITE_TESTS_TEST_SCHEMA_H_
