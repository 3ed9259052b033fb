#include <gtest/gtest.h>

#include "adapters/enumerable/enumerable_rules.h"
#include "plan/hep_planner.h"
#include "plan/programs.h"
#include "plan/volcano_planner.h"
#include "rel/rel_writer.h"
#include "rules/core_rules.h"
#include "test_schema.h"
#include "tools/rel_builder.h"

namespace calcite {
namespace {

using testing::MakeTestSchema;

class PlannerTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = MakeTestSchema();
  PlannerContext context_;

  /// The Figure 4 query: sales JOIN products ON productId WHERE
  /// discount IS NOT NULL, grouped by product name.
  RelNodePtr BuildFigure4Plan() {
    RelBuilder b(schema_);
    b.Scan("sales").Scan("products");
    RexNodePtr cond =
        b.Equals(b.Field(1, "productId"), b.Field(0, "productId"));
    b.Join(JoinType::kInner, cond);
    b.Filter(b.Call(OpKind::kIsNotNull, {b.Field("discount")}));
    b.Aggregate(b.GroupKey({"name"}), {b.Count(false, "c")});
    auto result = b.Build();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result.value() : nullptr;
  }
};

TEST_F(PlannerTest, HepPlannerPushesFilterIntoJoin) {
  RelNodePtr plan = BuildFigure4Plan();
  ASSERT_NE(plan, nullptr);

  HepPlanner planner(StandardLogicalRules(), &context_);
  auto optimized = planner.Optimize(plan);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_GT(planner.rule_fire_count(), 0);

  // After FilterIntoJoinRule the filter must sit below the join, directly
  // over the sales scan (Figure 4b).
  std::string explain = ExplainPlan(optimized.value());
  size_t join_pos = explain.find("LogicalJoin");
  size_t filter_pos = explain.find("LogicalFilter");
  ASSERT_NE(join_pos, std::string::npos) << explain;
  ASSERT_NE(filter_pos, std::string::npos) << explain;
  EXPECT_GT(filter_pos, join_pos) << explain;
}

TEST_F(PlannerTest, VolcanoProducesExecutableEnumerablePlan) {
  RelNodePtr plan = BuildFigure4Plan();
  ASSERT_NE(plan, nullptr);

  std::vector<RelOptRulePtr> rules = StandardLogicalRules();
  for (auto& rule : EnumerableConverterRules()) rules.push_back(rule);

  VolcanoPlanner planner(rules, &context_);
  auto optimized =
      planner.Optimize(plan, RelTraitSet(Convention::Enumerable()));
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_FALSE(planner.best_cost().IsInfinite());

  auto rows = optimized.value()->Execute();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // sales has 4 rows with non-null discount: products 1 (x1), 2 (x2), 3 (x1).
  ASSERT_EQ(rows.value().size(), 3u);
  int64_t total = 0;
  for (const Row& row : rows.value()) {
    ASSERT_EQ(row.size(), 2u);
    total += row[1].AsInt();
  }
  EXPECT_EQ(total, 4);
}

TEST_F(PlannerTest, VolcanoMatchesUnoptimizedResults) {
  // Plan-invariance: the optimized plan returns the same rows as naive
  // enumerable conversion without logical rewrites.
  RelNodePtr plan = BuildFigure4Plan();
  ASSERT_NE(plan, nullptr);

  VolcanoPlanner naive(EnumerableConverterRules(), &context_);
  auto naive_plan = naive.Optimize(plan, RelTraitSet(Convention::Enumerable()));
  ASSERT_TRUE(naive_plan.ok()) << naive_plan.status().ToString();
  auto naive_rows = naive_plan.value()->Execute();
  ASSERT_TRUE(naive_rows.ok());

  std::vector<RelOptRulePtr> rules = StandardLogicalRules();
  for (auto& rule : EnumerableConverterRules()) rules.push_back(rule);
  PlannerContext context2;
  VolcanoPlanner full(rules, &context2);
  auto full_plan = full.Optimize(plan, RelTraitSet(Convention::Enumerable()));
  ASSERT_TRUE(full_plan.ok()) << full_plan.status().ToString();
  auto full_rows = full_plan.value()->Execute();
  ASSERT_TRUE(full_rows.ok());

  auto sort_rows = [](std::vector<Row> rows) {
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return RowToString(a) < RowToString(b);
    });
    return rows;
  };
  EXPECT_EQ(sort_rows(naive_rows.value()).size(),
            sort_rows(full_rows.value()).size());
  auto a = sort_rows(naive_rows.value());
  auto b = sort_rows(full_rows.value());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(RowToString(a[i]), RowToString(b[i]));
  }
}

TEST_F(PlannerTest, StandardProgramRunsBothPhases) {
  RelNodePtr plan = BuildFigure4Plan();
  ASSERT_NE(plan, nullptr);
  Program program = Program::Standard(StandardLogicalRules(),
                                      EnumerableConverterRules(),
                                      RelTraitSet(Convention::Enumerable()));
  auto optimized = program.Run(plan, &context_);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  auto rows = optimized.value()->Execute();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().size(), 3u);
}

TEST_F(PlannerTest, DeltaModeStopsEarlierThanExhaustive) {
  // Join-reorder exploration on a 4-way join: the δ-threshold fixpoint
  // should fire no more rules than the exhaustive one.
  RelBuilder b(schema_);
  b.Scan("sales").Scan("products");
  b.Join(JoinType::kInner,
         b.Equals(b.Field(1, "productId"), b.Field(0, "productId")));
  b.Scan("emps");
  b.Join(JoinType::kInner, b.Equals(b.Field(1, "saleid"), b.Field(0, "empid")));
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  std::vector<RelOptRulePtr> rules = JoinReorderRules();
  for (auto& rule : EnumerableConverterRules()) rules.push_back(rule);

  PlannerContext c1;
  VolcanoPlanner::Options exhaustive_opts;
  exhaustive_opts.exhaustive = true;
  VolcanoPlanner exhaustive(rules, &c1, exhaustive_opts);
  auto p1 = exhaustive.Optimize(plan.value(),
                                RelTraitSet(Convention::Enumerable()));
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();

  PlannerContext c2;
  VolcanoPlanner::Options delta_opts;
  delta_opts.exhaustive = false;
  delta_opts.cost_improvement_delta = 0.5;
  delta_opts.delta_window = 5;
  VolcanoPlanner delta(rules, &c2, delta_opts);
  auto p2 = delta.Optimize(plan.value(),
                           RelTraitSet(Convention::Enumerable()));
  ASSERT_TRUE(p2.ok()) << p2.status().ToString();

  EXPECT_LE(delta.rule_fire_count(), exhaustive.rule_fire_count());
  // Both must execute and agree on the result size.
  auto r1 = p1.value()->Execute();
  auto r2 = p2.value()->Execute();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().size(), r2.value().size());
}

TEST_F(PlannerTest, EquivalenceSetsDeduplicate) {
  RelNodePtr plan = BuildFigure4Plan();
  std::vector<RelOptRulePtr> rules = StandardLogicalRules();
  for (auto& rule : JoinReorderRules()) rules.push_back(rule);
  for (auto& rule : EnumerableConverterRules()) rules.push_back(rule);
  VolcanoPlanner planner(rules, &context_);
  auto optimized =
      planner.Optimize(plan, RelTraitSet(Convention::Enumerable()));
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  // The memo must contain more expressions than sets (alternatives grouped
  // into equivalence classes).
  EXPECT_GT(planner.expr_count(), planner.set_count());
}

TEST_F(PlannerTest, EquiJoinWithOneRowSidePlansAsHashJoin) {
  // Against a side estimated at one row, a nested loop's left x right cost
  // undercuts the hash join's, but an equi-join must still plan as a hash
  // join: the nested loop evaluates the whole condition on every boxed pair.
  TypeFactory tf;
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto row = tf.CreateStructType({"deptno", "floor"}, {int_t, int_t});
  auto one = std::make_shared<MemTable>(
      row, std::vector<Row>{{Value::Int(10), Value::Int(3)}});
  TableStats stat;
  stat.row_count = 1;
  one->set_statistic(stat);
  schema_->AddTable("one_dept", one);

  RelBuilder b(schema_);
  b.Scan("emps").Scan("one_dept");
  b.Join(JoinType::kInner,
         b.Equals(b.Field(1, "deptno"), b.Field(0, "deptno")));
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  std::vector<RelOptRulePtr> rules = StandardLogicalRules();
  for (auto& rule : EnumerableConverterRules()) rules.push_back(rule);
  VolcanoPlanner planner(rules, &context_);
  auto optimized =
      planner.Optimize(plan.value(), RelTraitSet(Convention::Enumerable()));
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  const std::string explain = ExplainPlan(optimized.value());
  EXPECT_NE(explain.find("EnumerableHashJoin"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("EnumerableNestedLoopJoin"), std::string::npos)
      << explain;
  auto rows = optimized.value()->Execute();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().size(), 2u);  // Bill and Theodore in dept 10
}

}  // namespace
}  // namespace calcite
