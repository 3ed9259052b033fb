#include "rex/rex_interpreter.h"

#include <cmath>
#include <cstdlib>

#include "geo/geometry.h"
#include "util/string_utils.h"

namespace calcite {

namespace {

Status TypeError(const std::string& msg) { return Status::RuntimeError(msg); }

/// Arithmetic on two non-null numeric values. Integer ops stay integral when
/// both sides are integral (except '/' which follows SQL integer division).
Result<Value> EvalArithmetic(OpKind op, const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return TypeError(std::string("non-numeric operand to ") + OpKindName(op));
  }
  bool integral = a.is_int() && b.is_int();
  if (integral) {
    int64_t x = a.AsInt();
    int64_t y = b.AsInt();
    switch (op) {
      case OpKind::kPlus:
        return Value::Int(x + y);
      case OpKind::kMinus:
        return Value::Int(x - y);
      case OpKind::kTimes:
        return Value::Int(x * y);
      case OpKind::kDivide:
        if (y == 0) return TypeError("division by zero");
        return Value::Int(x / y);
      case OpKind::kMod:
        if (y == 0) return TypeError("division by zero");
        return Value::Int(x % y);
      default:
        break;
    }
  }
  double x = a.AsDouble();
  double y = b.AsDouble();
  switch (op) {
    case OpKind::kPlus:
      return Value::Double(x + y);
    case OpKind::kMinus:
      return Value::Double(x - y);
    case OpKind::kTimes:
      return Value::Double(x * y);
    case OpKind::kDivide:
      if (y == 0) return TypeError("division by zero");
      return Value::Double(x / y);
    case OpKind::kMod:
      if (y == 0) return TypeError("division by zero");
      return Value::Double(std::fmod(x, y));
    default:
      break;
  }
  return TypeError("unexpected arithmetic operator");
}

Result<Value> EvalComparison(OpKind op, const Value& a, const Value& b) {
  int c = a.Compare(b);
  switch (op) {
    case OpKind::kEquals:
      return Value::Bool(c == 0);
    case OpKind::kNotEquals:
      return Value::Bool(c != 0);
    case OpKind::kLessThan:
      return Value::Bool(c < 0);
    case OpKind::kLessThanOrEqual:
      return Value::Bool(c <= 0);
    case OpKind::kGreaterThan:
      return Value::Bool(c > 0);
    case OpKind::kGreaterThanOrEqual:
      return Value::Bool(c >= 0);
    default:
      return TypeError("unexpected comparison operator");
  }
}

Result<Value> RequireGeometry(const Value& v) {
  if (v.is_geometry()) return v;
  if (v.is_string()) {
    auto geom = geo::GeomFromText(v.AsString());
    if (!geom.ok()) return geom.status();
    return Value::Geometry(geom.value());
  }
  return TypeError("expected GEOMETRY value");
}

}  // namespace

Result<Value> RexInterpreter::CastValue(const Value& value,
                                        const RelDataType& type) {
  if (value.IsNull()) return Value::Null();
  switch (type.type_name()) {
    case SqlTypeName::kBoolean:
      if (value.is_bool()) return value;
      if (value.is_string()) {
        if (EqualsIgnoreCase(value.AsString(), "true")) return Value::Bool(true);
        if (EqualsIgnoreCase(value.AsString(), "false")) {
          return Value::Bool(false);
        }
        return TypeError("cannot cast '" + value.AsString() + "' to BOOLEAN");
      }
      if (value.is_numeric()) return Value::Bool(value.AsDouble() != 0);
      return TypeError("cannot cast to BOOLEAN");
    case SqlTypeName::kTinyInt:
    case SqlTypeName::kSmallInt:
    case SqlTypeName::kInteger:
    case SqlTypeName::kBigInt:
    case SqlTypeName::kDate:
    case SqlTypeName::kTime:
    case SqlTypeName::kTimestamp:
    case SqlTypeName::kIntervalDay:
      if (value.is_int()) return value;
      if (value.is_double()) {
        return Value::Int(static_cast<int64_t>(value.AsDouble()));
      }
      if (value.is_bool()) return Value::Int(value.AsBool() ? 1 : 0);
      if (value.is_string()) {
        char* end = nullptr;
        const std::string& s = value.AsString();
        double d = std::strtod(s.c_str(), &end);
        if (end == s.c_str()) {
          return TypeError("cannot cast '" + s + "' to " +
                           SqlTypeNameString(type.type_name()));
        }
        return Value::Int(static_cast<int64_t>(d));
      }
      return TypeError("cannot cast to integer type");
    case SqlTypeName::kFloat:
    case SqlTypeName::kDouble:
    case SqlTypeName::kDecimal:
      if (value.is_numeric()) return Value::Double(value.AsDouble());
      if (value.is_bool()) return Value::Double(value.AsBool() ? 1 : 0);
      if (value.is_string()) {
        char* end = nullptr;
        const std::string& s = value.AsString();
        double d = std::strtod(s.c_str(), &end);
        if (end == s.c_str()) {
          return TypeError("cannot cast '" + s + "' to DOUBLE");
        }
        return Value::Double(d);
      }
      return TypeError("cannot cast to floating type");
    case SqlTypeName::kChar:
    case SqlTypeName::kVarchar: {
      std::string s;
      if (value.is_string()) {
        s = value.AsString();
      } else if (value.is_int()) {
        s = std::to_string(value.AsInt());
      } else if (value.is_double()) {
        Value v = value;
        s = v.ToString();
      } else if (value.is_bool()) {
        s = value.AsBool() ? "true" : "false";
      } else if (value.is_geometry()) {
        s = value.AsGeometry()->ToWkt();
      } else {
        Value v = value;
        s = v.ToString();
      }
      if (type.precision() >= 0 &&
          s.size() > static_cast<size_t>(type.precision())) {
        s = s.substr(0, static_cast<size_t>(type.precision()));
      }
      return Value::String(std::move(s));
    }
    case SqlTypeName::kGeometry:
      return RequireGeometry(value);
    case SqlTypeName::kAny:
    case SqlTypeName::kArray:
    case SqlTypeName::kMap:
    case SqlTypeName::kMultiset:
    case SqlTypeName::kRow:
    case SqlTypeName::kNull:
      return value;
  }
  return value;
}

Result<Value> RexInterpreter::Eval(const RexNodePtr& node, const Row& input) {
  switch (node->node_kind()) {
    case RexNode::NodeKind::kInputRef: {
      const auto* ref = static_cast<const RexInputRef*>(node.get());
      if (ref->index() < 0 || static_cast<size_t>(ref->index()) >= input.size()) {
        return TypeError("input ref $" + std::to_string(ref->index()) +
                         " out of range for row of " +
                         std::to_string(input.size()));
      }
      return input[static_cast<size_t>(ref->index())];
    }
    case RexNode::NodeKind::kLiteral:
      return static_cast<const RexLiteral*>(node.get())->value();
    case RexNode::NodeKind::kCall:
      break;
  }
  const auto* call = static_cast<const RexCall*>(node.get());
  const OpKind op = call->op();

  // Short-circuiting boolean connectives with three-valued logic.
  if (op == OpKind::kAnd || op == OpKind::kOr) {
    bool saw_null = false;
    for (const RexNodePtr& operand : call->operands()) {
      auto v = Eval(operand, input);
      if (!v.ok()) return v;
      if (v.value().IsNull()) {
        saw_null = true;
        continue;
      }
      bool b = v.value().AsBool();
      if (op == OpKind::kAnd && !b) return Value::Bool(false);
      if (op == OpKind::kOr && b) return Value::Bool(true);
    }
    if (saw_null) return Value::Null();
    return Value::Bool(op == OpKind::kAnd);
  }
  if (op == OpKind::kCase) {
    // [cond1, val1, ..., else]
    const auto& ops = call->operands();
    for (size_t i = 0; i + 1 < ops.size(); i += 2) {
      auto cond = Eval(ops[i], input);
      if (!cond.ok()) return cond;
      if (!cond.value().IsNull() && cond.value().AsBool()) {
        return Eval(ops[i + 1], input);
      }
    }
    return Eval(ops.back(), input);
  }
  if (op == OpKind::kCoalesce) {
    for (const RexNodePtr& operand : call->operands()) {
      auto v = Eval(operand, input);
      if (!v.ok()) return v;
      if (!v.value().IsNull()) return v;
    }
    return Value::Null();
  }

  // Strict evaluation of operands for the remaining operators.
  std::vector<Value> args;
  args.reserve(call->operands().size());
  for (const RexNodePtr& operand : call->operands()) {
    auto v = Eval(operand, input);
    if (!v.ok()) return v;
    args.push_back(std::move(v).value());
  }

  // NULL-tolerant operators first.
  switch (op) {
    case OpKind::kIsNull:
      return Value::Bool(args[0].IsNull());
    case OpKind::kIsNotNull:
      return Value::Bool(!args[0].IsNull());
    case OpKind::kIsTrue:
      return Value::Bool(!args[0].IsNull() && args[0].AsBool());
    case OpKind::kIsFalse:
      return Value::Bool(!args[0].IsNull() && !args[0].AsBool());
    case OpKind::kCast:
      return CastValue(args[0], *node->type());
    default:
      break;
  }

  // All remaining operators are NULL-strict.
  for (const Value& arg : args) {
    if (arg.IsNull()) return Value::Null();
  }

  switch (op) {
    case OpKind::kPlus:
    case OpKind::kMinus:
    case OpKind::kTimes:
    case OpKind::kDivide:
    case OpKind::kMod:
      return EvalArithmetic(op, args[0], args[1]);
    case OpKind::kUnaryMinus:
      if (args[0].is_int()) return Value::Int(-args[0].AsInt());
      if (args[0].is_double()) return Value::Double(-args[0].AsDouble());
      return TypeError("non-numeric operand to unary minus");
    case OpKind::kEquals:
    case OpKind::kNotEquals:
    case OpKind::kLessThan:
    case OpKind::kLessThanOrEqual:
    case OpKind::kGreaterThan:
    case OpKind::kGreaterThanOrEqual:
      return EvalComparison(op, args[0], args[1]);
    case OpKind::kNot:
      return Value::Bool(!args[0].AsBool());
    case OpKind::kLike:
      return Value::Bool(SqlLikeMatch(args[0].AsString(), args[1].AsString()));
    case OpKind::kIn: {
      bool saw_null = false;
      for (size_t i = 1; i < args.size(); ++i) {
        if (args[i].IsNull()) {
          saw_null = true;
          continue;
        }
        if (args[0] == args[i]) return Value::Bool(true);
      }
      return saw_null ? Value::Null() : Value::Bool(false);
    }
    case OpKind::kBetween:
      return Value::Bool(args[0].Compare(args[1]) >= 0 &&
                         args[0].Compare(args[2]) <= 0);
    case OpKind::kItem:
      if (args[0].is_map()) return args[0].MapLookup(args[1]);
      if (args[0].is_array()) {
        if (!args[1].is_numeric()) return TypeError("array index not numeric");
        int64_t idx = args[1].AsInt();
        const auto& elems = args[0].AsArray();
        // SQL arrays are 1-based; we additionally accept 0-based index 0 for
        // the paper's MongoDB example `_MAP['loc'][0]`.
        if (idx >= 1 && static_cast<size_t>(idx) <= elems.size()) {
          return elems[static_cast<size_t>(idx - 1)];
        }
        if (idx == 0 && !elems.empty()) return elems[0];
        return Value::Null();
      }
      return Value::Null();
    case OpKind::kConcat:
      return Value::String(args[0].AsString() + args[1].AsString());
    case OpKind::kUpper:
      return Value::String(ToUpper(args[0].AsString()));
    case OpKind::kLower:
      return Value::String(ToLower(args[0].AsString()));
    case OpKind::kTrim:
      return Value::String(Trim(args[0].AsString()));
    case OpKind::kCharLength:
      return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
    case OpKind::kSubstring: {
      const std::string& s = args[0].AsString();
      int64_t start = args[1].AsInt();  // 1-based
      int64_t len = args.size() > 2 ? args[2].AsInt()
                                    : static_cast<int64_t>(s.size());
      if (start < 1) start = 1;
      if (start > static_cast<int64_t>(s.size())) return Value::String("");
      return Value::String(
          s.substr(static_cast<size_t>(start - 1),
                   static_cast<size_t>(std::max<int64_t>(0, len))));
    }
    case OpKind::kAbs:
      if (args[0].is_int()) return Value::Int(std::abs(args[0].AsInt()));
      return Value::Double(std::abs(args[0].AsDouble()));
    case OpKind::kFloor:
      if (args[0].is_int()) return args[0];
      return Value::Double(std::floor(args[0].AsDouble()));
    case OpKind::kCeil:
      if (args[0].is_int()) return args[0];
      return Value::Double(std::ceil(args[0].AsDouble()));
    case OpKind::kPower:
      return Value::Double(std::pow(args[0].AsDouble(), args[1].AsDouble()));
    case OpKind::kSqrt:
      return Value::Double(std::sqrt(args[0].AsDouble()));
    case OpKind::kStGeomFromText: {
      auto geom = geo::GeomFromText(args[0].AsString());
      if (!geom.ok()) return geom.status();
      return Value::Geometry(geom.value());
    }
    case OpKind::kStAsText: {
      auto g = RequireGeometry(args[0]);
      if (!g.ok()) return g;
      return Value::String(g.value().AsGeometry()->ToWkt());
    }
    case OpKind::kStMakePoint:
      return Value::Geometry(
          geo::Geometry::MakePoint(args[0].AsDouble(), args[1].AsDouble()));
    case OpKind::kStContains: {
      auto a = RequireGeometry(args[0]);
      if (!a.ok()) return a;
      auto b = RequireGeometry(args[1]);
      if (!b.ok()) return b;
      return Value::Bool(
          geo::Contains(*a.value().AsGeometry(), *b.value().AsGeometry()));
    }
    case OpKind::kStWithin: {
      auto a = RequireGeometry(args[0]);
      if (!a.ok()) return a;
      auto b = RequireGeometry(args[1]);
      if (!b.ok()) return b;
      return Value::Bool(
          geo::Within(*a.value().AsGeometry(), *b.value().AsGeometry()));
    }
    case OpKind::kStIntersects: {
      auto a = RequireGeometry(args[0]);
      if (!a.ok()) return a;
      auto b = RequireGeometry(args[1]);
      if (!b.ok()) return b;
      return Value::Bool(
          geo::Intersects(*a.value().AsGeometry(), *b.value().AsGeometry()));
    }
    case OpKind::kStDistance: {
      auto a = RequireGeometry(args[0]);
      if (!a.ok()) return a;
      auto b = RequireGeometry(args[1]);
      if (!b.ok()) return b;
      return Value::Double(
          geo::Distance(*a.value().AsGeometry(), *b.value().AsGeometry()));
    }
    case OpKind::kStArea: {
      auto g = RequireGeometry(args[0]);
      if (!g.ok()) return g;
      return Value::Double(g.value().AsGeometry()->Area());
    }
    case OpKind::kStX: {
      auto g = RequireGeometry(args[0]);
      if (!g.ok()) return g;
      return Value::Double(g.value().AsGeometry()->X());
    }
    case OpKind::kStY: {
      auto g = RequireGeometry(args[0]);
      if (!g.ok()) return g;
      return Value::Double(g.value().AsGeometry()->Y());
    }
    // Streaming window functions: TUMBLE(ts, interval) assigns the window
    // start; *_END the window end. HOP takes (ts, slide, size). SESSION's
    // runtime assignment happens in the stream executor; here we map the
    // timestamp to its containing tumbling/hopping bucket.
    case OpKind::kTumble: {
      int64_t ts = args[0].AsInt();
      int64_t size = args[1].AsInt();
      if (size <= 0) return TypeError("TUMBLE interval must be positive");
      return Value::Int(ts - (ts % size + size) % size);
    }
    case OpKind::kTumbleStart: {
      int64_t ts = args[0].AsInt();
      int64_t size = args[1].AsInt();
      if (size <= 0) return TypeError("TUMBLE interval must be positive");
      return Value::Int(ts - (ts % size + size) % size);
    }
    case OpKind::kTumbleEnd: {
      int64_t ts = args[0].AsInt();
      int64_t size = args[1].AsInt();
      if (size <= 0) return TypeError("TUMBLE interval must be positive");
      return Value::Int(ts - (ts % size + size) % size + size);
    }
    case OpKind::kHop: {
      int64_t ts = args[0].AsInt();
      int64_t slide = args[1].AsInt();
      if (slide <= 0) return TypeError("HOP slide must be positive");
      return Value::Int(ts - (ts % slide + slide) % slide);
    }
    case OpKind::kHopEnd: {
      int64_t ts = args[0].AsInt();
      int64_t slide = args[1].AsInt();
      int64_t size = args[2].AsInt();
      if (slide <= 0) return TypeError("HOP slide must be positive");
      return Value::Int(ts - (ts % slide + slide) % slide + size);
    }
    case OpKind::kSession:
    case OpKind::kSessionEnd:
      // Sessionization depends on neighbouring rows; the stream executor
      // rewrites SESSION groups before evaluation. Standalone evaluation
      // degenerates to the timestamp itself.
      return args[0];
    default:
      break;
  }
  return TypeError(std::string("cannot evaluate operator ") + OpKindName(op));
}

Result<bool> RexInterpreter::EvalPredicate(const RexNodePtr& node,
                                           const Row& input) {
  auto v = Eval(node, input);
  if (!v.ok()) return v.status();
  if (v.value().IsNull()) return false;
  return v.value().AsBool();
}

Result<std::vector<Row>> RexInterpreter::FilterRows(const RexNodePtr& condition,
                                                    std::vector<Row> rows) {
  std::vector<Row> out;
  for (Row& row : rows) {
    auto pass = EvalPredicate(condition, row);
    if (!pass.ok()) return pass.status();
    if (pass.value()) out.push_back(std::move(row));
  }
  return out;
}

}  // namespace calcite
