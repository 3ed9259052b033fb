#include <gtest/gtest.h>

#include "geo/geometry.h"
#include "rex/rex_builder.h"
#include "rex/rex_interpreter.h"
#include "rex/rex_simplifier.h"
#include "rex/rex_util.h"
#include "sql/rel_to_sql.h"
#include "test_schema.h"
#include "tools/frameworks.h"
#include "util/json.h"
#include "util/string_utils.h"

namespace calcite {
namespace {

// ---------------------------------- util -----------------------------------

TEST(StatusTest, CodesAndFormatting) {
  EXPECT_TRUE(Status::OK().ok());
  Status st = Status::ParseError("boom");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.ToString(), "ParseError: boom");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(StringUtilsTest, Basics) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(Split("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(ToUpper("MiXeD"), "MIXED");
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_TRUE(EqualsIgnoreCase("DeptNo", "deptno"));
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
}

TEST(StringUtilsTest, SqlLike) {
  EXPECT_TRUE(SqlLikeMatch("hello", "h%o"));
  EXPECT_TRUE(SqlLikeMatch("hello", "_ello"));
  EXPECT_TRUE(SqlLikeMatch("hello", "%"));
  EXPECT_FALSE(SqlLikeMatch("hello", "h_o"));
  EXPECT_TRUE(SqlLikeMatch("", "%"));
  EXPECT_FALSE(SqlLikeMatch("abc", ""));
  EXPECT_TRUE(SqlLikeMatch("a%c", "a%c"));
}

TEST(JsonTest, RoundTrip) {
  auto parsed = ParseJson(
      R"({"a": [1, 2.5, true, null], "b": {"nested": "x\"y"}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Get("a")->as_array().size(), 4u);
  EXPECT_DOUBLE_EQ(v.Get("a")->as_array()[1].as_number(), 2.5);
  EXPECT_EQ(v.Get("b")->Get("nested")->as_string(), "x\"y");
  auto reparsed = ParseJson(v.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().Dump(), v.Dump());
}

TEST(JsonTest, Errors) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
}

TEST(JsonTest, UnicodeEscape) {
  auto parsed = ParseJson(R"("café")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().as_string(), "caf\xC3\xA9");
}

// --------------------------------- values ----------------------------------

TEST(ValueTest, CompareAcrossNumericRepresentations) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
}

TEST(ValueTest, NullOrdering) {
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
}

TEST(ValueTest, MapAndArray) {
  Value m = Value::Map({{Value::String("k"), Value::Int(7)}});
  EXPECT_EQ(m.MapLookup(Value::String("k")).AsInt(), 7);
  EXPECT_TRUE(m.MapLookup(Value::String("missing")).IsNull());
  Value a = Value::Array({Value::Int(1), Value::Int(2)});
  EXPECT_EQ(a.AsArray().size(), 2u);
  EXPECT_EQ(a.ToString(), "[1, 2]");
}

// ---------------------------------- types ----------------------------------

TEST(TypeTest, LeastRestrictive) {
  TypeFactory tf;
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto dbl_t = tf.CreateSqlType(SqlTypeName::kDouble);
  auto lr = tf.LeastRestrictive({int_t, dbl_t});
  ASSERT_NE(lr, nullptr);
  EXPECT_EQ(lr->type_name(), SqlTypeName::kDouble);

  auto v10 = tf.CreateSqlType(SqlTypeName::kVarchar, 10);
  auto v20 = tf.CreateSqlType(SqlTypeName::kVarchar, 20);
  EXPECT_EQ(tf.LeastRestrictive({v10, v20})->precision(), 20);

  auto bool_t = tf.CreateSqlType(SqlTypeName::kBoolean);
  EXPECT_EQ(tf.LeastRestrictive({int_t, bool_t}), nullptr);
}

TEST(TypeTest, StructLookupIsCaseInsensitive) {
  TypeFactory tf;
  auto row = tf.CreateStructType(
      {"DeptNo"}, {tf.CreateSqlType(SqlTypeName::kInteger)});
  EXPECT_NE(row->FindField("deptno"), nullptr);
  EXPECT_EQ(row->FindField("nope"), nullptr);
}

// ----------------------------------- rex -----------------------------------

TEST(RexTest, ThreeValuedLogic) {
  RexBuilder rex;
  TypeFactory tf;
  auto null_bool = rex.MakeNullLiteral(tf.CreateSqlType(SqlTypeName::kBoolean));
  // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL.
  Row empty;
  auto and_false =
      rex.MakeAnd({null_bool, rex.MakeBoolLiteral(false)});
  EXPECT_FALSE(RexInterpreter::Eval(and_false, empty).value().IsNull());
  EXPECT_FALSE(RexInterpreter::Eval(and_false, empty).value().AsBool());
  auto or_true = rex.MakeOr({null_bool, rex.MakeBoolLiteral(true)});
  EXPECT_TRUE(RexInterpreter::Eval(or_true, empty).value().AsBool());
  auto and_true = rex.MakeAnd({null_bool, rex.MakeBoolLiteral(true)});
  EXPECT_TRUE(RexInterpreter::Eval(and_true, empty).value().IsNull());
}

TEST(RexTest, NullStrictComparison) {
  RexBuilder rex;
  TypeFactory tf;
  auto cmp = rex.MakeCall(
      OpKind::kEquals,
      {rex.MakeNullLiteral(tf.CreateSqlType(SqlTypeName::kInteger)),
       rex.MakeIntLiteral(1)});
  Row empty;
  EXPECT_TRUE(RexInterpreter::Eval(cmp.value(), empty).value().IsNull());
}

TEST(RexTest, DivisionByZeroIsRuntimeError) {
  RexBuilder rex;
  auto div = rex.MakeCall(OpKind::kDivide,
                          {rex.MakeIntLiteral(1), rex.MakeIntLiteral(0)});
  Row empty;
  auto result = RexInterpreter::Eval(div.value(), empty);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kRuntimeError);
}

TEST(RexSimplifierTest, ConstantFolding) {
  RexBuilder rex;
  RexSimplifier simplifier(rex);
  auto expr = rex.MakeCall(
      OpKind::kPlus,
      {rex.MakeIntLiteral(1),
       rex.MakeCall(OpKind::kTimes,
                    {rex.MakeIntLiteral(2), rex.MakeIntLiteral(3)})
           .value()});
  RexNodePtr simplified = simplifier.Simplify(expr.value());
  const RexLiteral* lit = AsLiteral(simplified);
  ASSERT_NE(lit, nullptr);
  EXPECT_EQ(lit->value().AsInt(), 7);
}

TEST(RexSimplifierTest, BooleanAlgebra) {
  RexBuilder rex;
  RexSimplifier simplifier(rex);
  RexNodePtr x = rex.MakeInputRef(
      0, RexBuilder().type_factory().CreateSqlType(SqlTypeName::kBoolean));
  // x AND TRUE -> x
  EXPECT_TRUE(RexUtil::Equal(
      simplifier.Simplify(rex.MakeAnd({x, rex.MakeBoolLiteral(true)})), x));
  // x OR TRUE -> TRUE
  EXPECT_TRUE(RexUtil::IsLiteralTrue(
      simplifier.Simplify(rex.MakeOr({x, rex.MakeBoolLiteral(true)}))));
  // x AND FALSE -> FALSE
  EXPECT_TRUE(RexUtil::IsLiteralFalse(
      simplifier.Simplify(rex.MakeAnd({x, rex.MakeBoolLiteral(false)}))));
  // NOT NOT x -> x
  auto not_x = rex.MakeCall(OpKind::kNot, {x});
  auto not_not_x = rex.MakeCall(OpKind::kNot, {not_x.value()});
  EXPECT_TRUE(RexUtil::Equal(simplifier.Simplify(not_not_x.value()), x));
}

TEST(RexSimplifierTest, Idempotent) {
  RexBuilder rex;
  RexSimplifier simplifier(rex);
  TypeFactory tf;
  RexNodePtr x = rex.MakeInputRef(0, tf.CreateSqlType(SqlTypeName::kInteger));
  auto expr = rex.MakeCall(
      OpKind::kGreaterThan,
      {rex.MakeCall(OpKind::kPlus, {x, rex.MakeIntLiteral(0)}).value(),
       rex.MakeIntLiteral(5)});
  RexNodePtr once = simplifier.Simplify(expr.value());
  RexNodePtr twice = simplifier.Simplify(once);
  EXPECT_EQ(once->ToString(), twice->ToString());
}

TEST(RexUtilTest, FlattenAndCompose) {
  RexBuilder rex;
  TypeFactory tf;
  RexNodePtr a = rex.MakeInputRef(0, tf.CreateSqlType(SqlTypeName::kBoolean));
  RexNodePtr b = rex.MakeInputRef(1, tf.CreateSqlType(SqlTypeName::kBoolean));
  RexNodePtr c = rex.MakeInputRef(2, tf.CreateSqlType(SqlTypeName::kBoolean));
  RexNodePtr nested = rex.MakeAnd({rex.MakeAnd({a, b}), c});
  auto flat = RexUtil::FlattenAnd(nested);
  EXPECT_EQ(flat.size(), 3u);
  EXPECT_TRUE(RexUtil::FlattenAnd(rex.MakeBoolLiteral(true)).empty());
}

TEST(RexUtilTest, ShiftAndRemap) {
  RexBuilder rex;
  TypeFactory tf;
  RexNodePtr ref = rex.MakeInputRef(2, tf.CreateSqlType(SqlTypeName::kInteger));
  EXPECT_EQ(RexUtil::ShiftRefs(ref, 3)->ToString(), "$5");
  EXPECT_EQ(RexUtil::RemapRefs(ref, {9, 8, 7})->ToString(), "$7");
  EXPECT_EQ(RexUtil::InputRefs(ref).count(2), 1u);
}

TEST(MonotonicityTest, WindowFunctionsPreserve) {
  RexBuilder rex;
  TypeFactory tf;
  RexNodePtr rowtime =
      rex.MakeInputRef(0, tf.CreateSqlType(SqlTypeName::kTimestamp));
  auto tumble = rex.MakeCall(
      OpKind::kTumble, {rowtime, rex.MakeIntervalLiteral(3600000)});
  EXPECT_EQ(DeriveMonotonicity(tumble.value(), {0}),
            Monotonicity::kIncreasing);
  EXPECT_EQ(DeriveMonotonicity(tumble.value(), {1}),
            Monotonicity::kNotMonotonic);
  auto negated = rex.MakeCall(OpKind::kUnaryMinus, {rowtime});
  EXPECT_EQ(DeriveMonotonicity(negated.value(), {0}),
            Monotonicity::kDecreasing);
}

// ----------------------------------- geo -----------------------------------

TEST(GeoTest, WktRoundTrip) {
  auto point = geo::GeomFromText("POINT (4.9 52.37)");
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point.value()->ToWkt(), "POINT (4.9 52.37)");
  auto poly = geo::GeomFromText("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
  ASSERT_TRUE(poly.ok());
  EXPECT_DOUBLE_EQ(poly.value()->Area(), 16.0);
  EXPECT_FALSE(geo::GeomFromText("CIRCLE (1 1)").ok());
}

TEST(GeoTest, ContainsAndIntersects) {
  auto poly = geo::GeomFromText("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
  auto inner = geo::Geometry::MakePoint(5, 5);
  auto outer = geo::Geometry::MakePoint(15, 5);
  EXPECT_TRUE(geo::Contains(*poly.value(), *inner));
  EXPECT_FALSE(geo::Contains(*poly.value(), *outer));
  EXPECT_TRUE(geo::Within(*inner, *poly.value()));
  auto line = geo::Geometry::MakeLineString({{-1, 5}, {11, 5}});
  EXPECT_TRUE(geo::Intersects(*poly.value(), *line));
}

TEST(GeoTest, Distance) {
  auto a = geo::Geometry::MakePoint(0, 0);
  auto b = geo::Geometry::MakePoint(3, 4);
  EXPECT_DOUBLE_EQ(geo::Distance(*a, *b), 5.0);
  auto line = geo::Geometry::MakeLineString({{0, 2}, {10, 2}});
  EXPECT_DOUBLE_EQ(geo::Distance(*a, *line), 2.0);
}

// -------------------------------- rel-to-sql --------------------------------

TEST(RelToSqlTest, GeneratesDialectSpecificSql) {
  SchemaPtr schema = testing::MakeTestSchema();
  Connection conn{Connection::Config{schema}};
  auto logical = conn.ParseQuery(
      "SELECT deptno, COUNT(*) AS c FROM emps WHERE salary > 8000 "
      "GROUP BY deptno ORDER BY deptno LIMIT 2");
  ASSERT_TRUE(logical.ok());

  auto mysql = RelToSqlConverter(SqlDialect::MySql()).Convert(logical.value());
  ASSERT_TRUE(mysql.ok()) << mysql.status().ToString();
  EXPECT_NE(mysql.value().find("`"), std::string::npos);
  EXPECT_NE(mysql.value().find("LIMIT 2"), std::string::npos);

  auto ansi = RelToSqlConverter(SqlDialect::Ansi()).Convert(logical.value());
  ASSERT_TRUE(ansi.ok());
  EXPECT_NE(ansi.value().find("FETCH NEXT 2 ROWS ONLY"), std::string::npos);
  EXPECT_NE(ansi.value().find("\"emps\""), std::string::npos);
}

TEST(RelToSqlTest, RoundTripsThroughOwnParser) {
  // SQL -> algebra -> SQL -> algebra -> execute must give the same rows as
  // direct execution (the §3 "translate back to SQL" capability).
  SchemaPtr schema = testing::MakeTestSchema();
  Connection conn{Connection::Config{schema}};
  const std::string original =
      "SELECT name FROM emps WHERE deptno = 20 ORDER BY name";
  auto logical = conn.ParseQuery(original);
  ASSERT_TRUE(logical.ok());
  auto regenerated =
      RelToSqlConverter(SqlDialect::PostgreSql()).Convert(logical.value());
  ASSERT_TRUE(regenerated.ok()) << regenerated.status().ToString();

  auto direct = conn.Query(original);
  auto roundtrip = conn.Query(regenerated.value());
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(roundtrip.ok()) << regenerated.value() << "\n"
                              << roundtrip.status().ToString();
  ASSERT_EQ(direct.value().rows.size(), roundtrip.value().rows.size());
  for (size_t i = 0; i < direct.value().rows.size(); ++i) {
    EXPECT_EQ(RowToString(direct.value().rows[i]),
              RowToString(roundtrip.value().rows[i]));
  }
}

// --------------------------- property-based sweeps --------------------------

/// Plan invariance: for a family of generated queries, the fully optimized
/// plan returns exactly the rows of the unoptimized (converter-only) plan.
class PlanInvarianceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanInvarianceTest, OptimizedMatchesNaive) {
  SchemaPtr schema = testing::MakeTestSchema();
  const std::string sql = GetParam();

  Connection optimized{Connection::Config{schema}};
  auto fast = optimized.Query(sql);
  ASSERT_TRUE(fast.ok()) << sql << "\n" << fast.status().ToString();

  Connection::Config naive_config{schema};
  naive_config.skip_logical_phase = true;
  Connection naive(naive_config);
  auto slow = naive.Query(sql);
  ASSERT_TRUE(slow.ok()) << sql << "\n" << slow.status().ToString();

  auto canonical = [](std::vector<Row> rows) {
    std::vector<std::string> out;
    for (const Row& row : rows) out.push_back(RowToString(row));
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(canonical(fast.value().rows), canonical(slow.value().rows))
      << sql;
}

INSTANTIATE_TEST_SUITE_P(
    QueryFamily, PlanInvarianceTest,
    ::testing::Values(
        "SELECT * FROM emps",
        "SELECT * FROM emps WHERE deptno = 10 AND salary > 9000",
        "SELECT * FROM emps WHERE deptno = 10 OR name LIKE 'S%'",
        "SELECT name, salary * 2 FROM emps WHERE TRUE",
        "SELECT e.name, d.dept_name FROM emps e JOIN depts d ON "
        "e.deptno = d.deptno WHERE e.salary > 7000",
        "SELECT d.dept_name, COUNT(*) FROM emps e JOIN depts d ON "
        "e.deptno = d.deptno GROUP BY d.dept_name",
        "SELECT p.name, SUM(s.units) FROM sales s JOIN products p ON "
        "s.productId = p.productId WHERE s.discount IS NOT NULL "
        "GROUP BY p.name",
        "SELECT deptno FROM emps UNION SELECT deptno FROM depts",
        "SELECT deptno, COUNT(*) FROM emps GROUP BY deptno "
        "HAVING COUNT(*) >= 1",
        "SELECT * FROM emps WHERE 1 = 0",
        "SELECT * FROM emps WHERE salary BETWEEN 7000 AND 10000 "
        "ORDER BY empid LIMIT 3",
        "SELECT DISTINCT deptno FROM emps WHERE empid > 0"));

/// Digest laws: equal trees have equal digests; different attributes yield
/// different digests.
class DigestTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DigestTest, DigestEqualityMatchesStructure) {
  SchemaPtr schema = testing::MakeTestSchema();
  Connection c1{Connection::Config{schema}};
  Connection c2{Connection::Config{schema}};
  auto p1 = c1.ParseQuery(GetParam());
  auto p2 = c2.ParseQuery(GetParam());
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value()->Digest(), p2.value()->Digest());

  // A different filter constant must change the digest.
  auto p3 = c1.ParseQuery("SELECT * FROM emps WHERE deptno = 11");
  auto p4 = c1.ParseQuery("SELECT * FROM emps WHERE deptno = 12");
  EXPECT_NE(p3.value()->Digest(), p4.value()->Digest());
}

INSTANTIATE_TEST_SUITE_P(
    Digests, DigestTest,
    ::testing::Values("SELECT * FROM emps WHERE deptno = 10",
                      "SELECT deptno, COUNT(*) FROM emps GROUP BY deptno",
                      "SELECT name FROM emps ORDER BY salary DESC"));

/// Simplifier soundness: for expressions over a sample row, the simplified
/// expression evaluates to the same value as the original.
class SimplifierSoundnessTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SimplifierSoundnessTest, SameValueAfterSimplification) {
  SchemaPtr schema = testing::MakeTestSchema();
  Connection conn{Connection::Config{schema}};
  // Wrap the expression in a projection over emps and compare results with
  // the logical phase (which simplifies) against naive conversion.
  std::string sql = "SELECT " + GetParam() + " FROM emps";
  Connection::Config naive_config{schema};
  naive_config.skip_logical_phase = true;
  Connection naive(naive_config);
  auto a = conn.Query(sql);
  auto b = naive.Query(sql);
  ASSERT_TRUE(a.ok()) << sql << a.status().ToString();
  ASSERT_TRUE(b.ok()) << sql << b.status().ToString();
  ASSERT_EQ(a.value().rows.size(), b.value().rows.size());
  for (size_t i = 0; i < a.value().rows.size(); ++i) {
    EXPECT_EQ(RowToString(a.value().rows[i]), RowToString(b.value().rows[i]))
        << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Exprs, SimplifierSoundnessTest,
    ::testing::Values("1 + 2 * 3", "salary + 0", "deptno = deptno",
                      "CASE WHEN TRUE THEN salary ELSE 0 END",
                      "CASE WHEN FALSE THEN 0.0 ELSE salary END",
                      "NOT (deptno < 20)", "UPPER(LOWER(name))",
                      "CAST(CAST(deptno AS VARCHAR(10)) AS INTEGER)",
                      "COALESCE(NULL, deptno)",
                      "salary > 5000 AND TRUE", "deptno IN (10, 20, 30)"));

}  // namespace
}  // namespace calcite
