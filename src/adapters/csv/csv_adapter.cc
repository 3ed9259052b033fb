#include "adapters/csv/csv_adapter.h"

#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "util/string_utils.h"

namespace calcite {

namespace {

Result<RelDataTypePtr> ColumnType(const std::string& type_name,
                                  const TypeFactory& tf) {
  std::string lower = ToLower(type_name);
  if (lower == "int" || lower == "integer") {
    return tf.CreateSqlType(SqlTypeName::kInteger, true);
  }
  if (lower == "long" || lower == "bigint") {
    return tf.CreateSqlType(SqlTypeName::kBigInt, true);
  }
  if (lower == "double" || lower == "float") {
    return tf.CreateSqlType(SqlTypeName::kDouble, true);
  }
  if (lower == "string" || lower == "varchar") {
    return tf.CreateSqlType(SqlTypeName::kVarchar, 255, true);
  }
  if (lower == "boolean" || lower == "bool") {
    return tf.CreateSqlType(SqlTypeName::kBoolean, true);
  }
  return Status::InvalidArgument("unsupported CSV column type '" + type_name +
                                 "'");
}

/// Parses all of `text` as a T, or nullopt if it is not one (trailing
/// characters, out of range).
template <typename T>
std::optional<T> ParseNumber(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// The value `text` denotes in a column of `type`, or nullopt when it
/// denotes none. An empty cell is NULL.
std::optional<Value> ParseCell(const std::string& text,
                               const RelDataType& type) {
  if (text.empty()) return Value::Null();
  switch (type.type_name()) {
    case SqlTypeName::kInteger:
      if (auto v = ParseNumber<int32_t>(text)) return Value::Int(*v);
      return std::nullopt;
    case SqlTypeName::kBigInt:
      if (auto v = ParseNumber<int64_t>(text)) return Value::Int(*v);
      return std::nullopt;
    case SqlTypeName::kDouble:
      if (auto v = ParseNumber<double>(text)) return Value::Double(*v);
      return std::nullopt;
    case SqlTypeName::kBoolean:
      if (EqualsIgnoreCase(text, "true")) return Value::Bool(true);
      if (EqualsIgnoreCase(text, "false")) return Value::Bool(false);
      return std::nullopt;
    default:
      return Value::String(text);
  }
}

}  // namespace

Result<std::shared_ptr<MemTable>> ParseCsv(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header)) {
    return Status::InvalidArgument("CSV input is empty");
  }
  TypeFactory tf;
  std::vector<std::string> names;
  std::vector<RelDataTypePtr> types;
  for (const std::string& column : Split(Trim(header), ',')) {
    std::vector<std::string> parts = Split(column, ':');
    if (parts.size() != 2) {
      return Status::InvalidArgument(
          "CSV header column must be name:type, got '" + column + "'");
    }
    names.push_back(Trim(parts[0]));
    auto type = ColumnType(Trim(parts[1]), tf);
    if (!type.ok()) return type.status();
    types.push_back(type.value());
  }
  std::vector<Row> rows;
  std::string line;
  size_t line_number = 1;  // the header
  while (std::getline(in, line)) {
    ++line_number;
    if (Trim(line).empty()) continue;
    std::vector<std::string> cells = Split(line, ',');
    if (cells.size() != names.size()) {
      return Status::InvalidArgument(
          "CSV line " + std::to_string(line_number) + " has " +
          std::to_string(cells.size()) + " cells, expected " +
          std::to_string(names.size()));
    }
    Row row;
    for (size_t i = 0; i < cells.size(); ++i) {
      std::string cell = Trim(cells[i]);
      std::optional<Value> value = ParseCell(cell, *types[i]);
      if (!value.has_value()) {
        return Status::InvalidArgument(
            "CSV line " + std::to_string(line_number) + ", column '" +
            names[i] + "': '" + cell + "' is not a valid " +
            types[i]->ToString());
      }
      row.push_back(std::move(*value));
    }
    rows.push_back(std::move(row));
  }
  return std::make_shared<MemTable>(tf.CreateStructType(names, types),
                                    std::move(rows));
}

Result<std::shared_ptr<MemTable>> ReadCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open CSV file '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseCsv(buffer.str());
}

Result<SchemaPtr> CsvSchemaFactory(const std::string& directory) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(directory)) {
    return Status::NotFound("'" + directory + "' is not a directory");
  }
  auto schema = std::make_shared<Schema>();
  for (const auto& entry : fs::directory_iterator(directory)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".csv") continue;
    auto table = ReadCsvFile(entry.path().string());
    if (!table.ok()) return table.status();
    schema->AddTable(entry.path().stem().string(), table.value());
  }
  return SchemaPtr(schema);
}

}  // namespace calcite
