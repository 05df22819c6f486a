// Tests for the plan optimizer: predicate pushdown, product-to-join
// conversion, select merging, schema inference — and the property that
// optimization never changes the answer distribution.
#include <gtest/gtest.h>

#include "core/lifted_executor.h"
#include "sql/optimizer.h"
#include "tests/test_util.h"
#include "worlds/enumerate.h"

namespace maybms {
namespace sql {
namespace {

using testing_util::CanonicalBag;
using testing_util::ExpectDistEq;

ExprPtr Col(const std::string& n) { return Expr::Column(n); }
ExprPtr IntLit(int64_t v) { return Expr::Const(Value::Int(v)); }
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return Expr::Compare(op, std::move(l), std::move(r));
}

WsdDb TwoTableDb() {
  WsdDb db;
  Status st = db.CreateRelation(
      "r", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  EXPECT_TRUE(st.ok());
  st = db.CreateRelation(
      "s", Schema({{"a", ValueType::kInt}, {"c", ValueType::kInt}}));
  EXPECT_TRUE(st.ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(InsertTuple(&db, "r",
                            {CellSpec::Certain(Value::Int(i % 3)),
                             i == 0 ? CellSpec::UniformOrSet({Value::Int(1),
                                                              Value::Int(5)})
                                    : CellSpec::Certain(Value::Int(i))})
                    .ok());
    EXPECT_TRUE(InsertTuple(&db, "s",
                            {CellSpec::Certain(Value::Int(i % 3)),
                             CellSpec::Certain(Value::Int(10 - i))})
                    .ok());
  }
  return db;
}

TEST(OptimizerTest, CrossConjunctBecomesJoinOthersPushDown) {
  WsdDb db = TwoTableDb();
  auto pred = Expr::And(
      Expr::And(Cmp(CompareOp::kEq, Col("a"), Col("s.a")),
                Cmp(CompareOp::kGt, Col("b"), IntLit(0))),
      Cmp(CompareOp::kLt, Col("c"), IntLit(10)));
  auto plan = Plan::Select(Plan::Product(Plan::Scan("r"), Plan::Scan("s")),
                           pred);
  auto optimized = Optimize(plan, db);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  // Root is a Join whose two children are Selects over Scans.
  ASSERT_EQ((*optimized)->kind(), PlanKind::kJoin);
  EXPECT_EQ((*optimized)->left()->kind(), PlanKind::kSelect);
  EXPECT_EQ((*optimized)->right()->kind(), PlanKind::kSelect);
  EXPECT_EQ((*optimized)->left()->input()->kind(), PlanKind::kScan);
}

TEST(OptimizerTest, LeftOnlyPredicateLeavesNoJoinPredicate) {
  WsdDb db = TwoTableDb();
  auto plan = Plan::Select(Plan::Product(Plan::Scan("r"), Plan::Scan("s")),
                           Cmp(CompareOp::kGt, Col("b"), IntLit(1)));
  auto optimized = Optimize(plan, db);
  ASSERT_TRUE(optimized.ok());
  ASSERT_EQ((*optimized)->kind(), PlanKind::kProduct);
  EXPECT_EQ((*optimized)->left()->kind(), PlanKind::kSelect);
  EXPECT_EQ((*optimized)->right()->kind(), PlanKind::kScan);
}

TEST(OptimizerTest, AdjacentSelectsMerge) {
  WsdDb db = TwoTableDb();
  auto plan = Plan::Select(
      Plan::Select(Plan::Scan("r"), Cmp(CompareOp::kGt, Col("b"), IntLit(0))),
      Cmp(CompareOp::kLt, Col("a"), IntLit(2)));
  auto optimized = Optimize(plan, db);
  ASSERT_TRUE(optimized.ok());
  ASSERT_EQ((*optimized)->kind(), PlanKind::kSelect);
  EXPECT_EQ((*optimized)->input()->kind(), PlanKind::kScan);
}

TEST(OptimizerTest, PushThroughUnion) {
  WsdDb db = TwoTableDb();
  auto plan = Plan::Select(Plan::Union(Plan::Scan("r"), Plan::Scan("r")),
                           Cmp(CompareOp::kGt, Col("b"), IntLit(1)));
  auto optimized = Optimize(plan, db);
  ASSERT_TRUE(optimized.ok());
  ASSERT_EQ((*optimized)->kind(), PlanKind::kUnion);
  EXPECT_EQ((*optimized)->left()->kind(), PlanKind::kSelect);
  EXPECT_EQ((*optimized)->right()->kind(), PlanKind::kSelect);
}

TEST(OptimizerTest, PlanSchemaMatchesExecution) {
  WsdDb db = TwoTableDb();
  auto plan = Plan::Project(
      Plan::Select(Plan::Product(Plan::Scan("r"), Plan::Scan("s")),
                   Cmp(CompareOp::kEq, Col("a"), Col("s.a"))),
      {{Col("b"), "b"}, {Col("c"), "c"}});
  auto schema = PlanSchema(plan, db);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  ASSERT_EQ(schema->size(), 2u);
  EXPECT_EQ(schema->attr(0).name, "b");
  EXPECT_EQ(schema->attr(1).name, "c");
  auto result = ExecuteLifted(plan, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->GetRelation("result").value()->schema().size(), 2u);
}

// ---------------------------------------------------------------------------
// Golden plan-text tests: one fixture per rewrite rule, each run with
// only that rule enabled so the assertion pins exactly what the rule
// does — plus negative cases where the rule must NOT fire.
// ---------------------------------------------------------------------------

OptimizerOptions Only(bool OptimizerOptions::*rule) {
  OptimizerOptions opts;
  opts.fold_constants = false;
  opts.push_predicates = false;
  opts.reorder_joins = false;
  opts.prune_projections = false;
  opts.*rule = true;
  return opts;
}

std::string OptimizedText(const PlanPtr& plan, const WsdDb& db,
                          const OptimizerOptions& opts) {
  auto optimized = Optimize(plan, db, opts);
  EXPECT_TRUE(optimized.ok()) << optimized.status().ToString();
  if (!optimized.ok()) return "";
  return (*optimized)->ToString();
}

// Three tables with distinct cardinalities for the reorder fixtures:
// big (6 rows), mid (3 rows), small (1 row).
WsdDb SizedTablesDb() {
  WsdDb db;
  EXPECT_TRUE(db.CreateRelation(
                    "big", Schema({{"g", ValueType::kInt},
                                   {"x", ValueType::kInt}}))
                  .ok());
  EXPECT_TRUE(db.CreateRelation(
                    "mid", Schema({{"g", ValueType::kInt},
                                   {"y", ValueType::kInt}}))
                  .ok());
  EXPECT_TRUE(db.CreateRelation(
                    "small", Schema({{"g", ValueType::kInt},
                                     {"z", ValueType::kInt}}))
                  .ok());
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(InsertTuple(&db, "big",
                            {CellSpec::Certain(Value::Int(i % 3)),
                             CellSpec::Certain(Value::Int(i))})
                    .ok());
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(InsertTuple(&db, "mid",
                            {CellSpec::Certain(Value::Int(i)),
                             CellSpec::Certain(Value::Int(10 + i))})
                    .ok());
  }
  EXPECT_TRUE(InsertTuple(&db, "small",
                          {CellSpec::Certain(Value::Int(1)),
                           CellSpec::Certain(Value::Int(42))})
                  .ok());
  return db;
}

TEST(OptimizerGolden, PushdownThroughJoin) {
  WsdDb db = TwoTableDb();
  auto plan = Plan::Select(
      Plan::Join(Plan::Scan("r"), Plan::Scan("s"),
                 Cmp(CompareOp::kEq, Expr::ColumnIdx(0, "a"),
                     Expr::ColumnIdx(2, "s.a"))),
      Expr::And(Cmp(CompareOp::kGt, Col("b"), IntLit(0)),
                Cmp(CompareOp::kLt, Col("c"), IntLit(10))));
  EXPECT_EQ(OptimizedText(plan, db, Only(&OptimizerOptions::push_predicates)),
            "Join (a = s.a)\n"
            "  Select (b > 0)\n"
            "    Scan r\n"
            "  Select (c < 10)\n"
            "    Scan s");
}

TEST(OptimizerGolden, ConjunctSplitOverProduct) {
  WsdDb db = TwoTableDb();
  auto plan = Plan::Select(
      Plan::Product(Plan::Scan("r"), Plan::Scan("s")),
      Expr::And(Expr::And(Cmp(CompareOp::kGt, Col("b"), IntLit(1)),
                          Cmp(CompareOp::kEq, Col("a"), Col("s.a"))),
                Cmp(CompareOp::kLt, Col("c"), IntLit(9))));
  EXPECT_EQ(OptimizedText(plan, db, Only(&OptimizerOptions::push_predicates)),
            "Join (a = s.a)\n"
            "  Select (b > 1)\n"
            "    Scan r\n"
            "  Select (c < 9)\n"
            "    Scan s");
}

TEST(OptimizerGolden, ConstantEqualityCarriesAcrossEquiJoin) {
  // a = s.a AND a = 2 keeps only pairs with s.a = 2: the derived conjunct
  // filters s before the join instead of after it.
  WsdDb db = TwoTableDb();
  auto plan = Plan::Select(
      Plan::Product(Plan::Scan("r"), Plan::Scan("s")),
      Expr::And(Cmp(CompareOp::kEq, Col("a"), Col("s.a")),
                Cmp(CompareOp::kEq, Col("a"), IntLit(2))));
  EXPECT_EQ(OptimizedText(plan, db, Only(&OptimizerOptions::push_predicates)),
            "Join (a = s.a)\n"
            "  Select (a = 2)\n"
            "    Scan r\n"
            "  Select (a = 2)\n"
            "    Scan s");
  // The other way round, with the constant on the left of `=` and the
  // equi-join already in a Join node.
  auto join = Plan::Select(
      Plan::Join(Plan::Scan("r"), Plan::Scan("s"),
                 Cmp(CompareOp::kEq, Expr::ColumnIdx(0, "a"),
                     Expr::ColumnIdx(2, "s.a"))),
      Cmp(CompareOp::kEq, IntLit(1), Col("s.a")));
  EXPECT_EQ(OptimizedText(join, db, Only(&OptimizerOptions::push_predicates)),
            "Join (a = s.a)\n"
            "  Select (a = 1)\n"
            "    Scan r\n"
            "  Select (1 = a)\n"
            "    Scan s");
}

TEST(OptimizerGolden, NegativeConstantOfOtherTypeIsNotCarried) {
  // A string constant never compares with the int column s.a: carrying
  // it would add a conjunct that errors on every tuple of s.
  WsdDb db = TwoTableDb();
  auto plan = Plan::Select(
      Plan::Product(Plan::Scan("r"), Plan::Scan("s")),
      Expr::And(Cmp(CompareOp::kEq, Col("a"), Col("s.a")),
                Cmp(CompareOp::kEq, Col("a"),
                    Expr::Const(Value::String("x")))));
  EXPECT_EQ(OptimizedText(plan, db, Only(&OptimizerOptions::push_predicates)),
            "Join (a = s.a)\n"
            "  Select (a = 'x')\n"
            "    Scan r\n"
            "  Scan s");
}

TEST(OptimizerGolden, ProjectionPrune) {
  WsdDb db = TwoTableDb();
  auto plan = Plan::Project(
      Plan::Join(Plan::Scan("r"), Plan::Scan("s"),
                 Cmp(CompareOp::kEq, Expr::ColumnIdx(0, "a"),
                     Expr::ColumnIdx(2, "s.a"))),
      {{Col("b"), "b"}});
  // r needs both its columns (a joins, b projects) — no projection is
  // inserted there; s is narrowed to its join key, dropping c.
  EXPECT_EQ(
      OptimizedText(plan, db, Only(&OptimizerOptions::prune_projections)),
      "Project b AS b\n"
      "  Join (a = r.a)\n"
      "    Scan r\n"
      "    Project a AS a\n"
      "      Scan s");
}

TEST(OptimizerGolden, JoinReorderBySize) {
  WsdDb db = SizedTablesDb();
  // big ⋈ mid ⋈ small, written largest-first: the reorderer must start
  // from the cheapest pair (small ⋈ mid, with mid as probe and small as
  // build side), join big last, and restore the column order on top.
  auto plan = Plan::Join(
      Plan::Join(Plan::Scan("big"), Plan::Scan("mid"),
                 Cmp(CompareOp::kEq, Expr::ColumnIdx(0, "g"),
                     Expr::ColumnIdx(2, "mid.g"))),
      Plan::Scan("small"),
      Cmp(CompareOp::kEq, Expr::ColumnIdx(2, "mid.g"),
          Expr::ColumnIdx(4, "small.g")));
  EXPECT_EQ(OptimizedText(plan, db, Only(&OptimizerOptions::reorder_joins)),
            "Project big.g AS g, x AS x, g AS mid.g, y AS y, small.g AS "
            "small.g, z AS z\n"
            "  Join (big.g = g)\n"
            "    Join (g = small.g)\n"
            "      Scan mid\n"
            "      Scan small\n"
            "    Scan big");
}

TEST(OptimizerGolden, ConstantFold) {
  WsdDb db = TwoTableDb();
  auto plan = Plan::Select(
      Plan::Scan("r"),
      Expr::And(Cmp(CompareOp::kEq,
                    Expr::Arith(ArithOp::kAdd, IntLit(1), IntLit(2)),
                    IntLit(3)),
                Cmp(CompareOp::kGt, Col("b"), IntLit(0))));
  EXPECT_EQ(OptimizedText(plan, db, Only(&OptimizerOptions::fold_constants)),
            "Select (b > 0)\n"
            "  Scan r");
}

TEST(OptimizerGolden, FullPipeline) {
  WsdDb db = SizedTablesDb();
  // The SQL-planner shape: one big WHERE above a product chain, wide
  // output narrowed by the projection. All rules compose.
  auto plan = Plan::Project(
      Plan::Select(
          Plan::Product(Plan::Product(Plan::Scan("big"), Plan::Scan("mid")),
                        Plan::Scan("small")),
          Expr::And(
              Expr::And(Cmp(CompareOp::kEq, Expr::ColumnIdx(0, "g"),
                            Expr::ColumnIdx(2, "mid.g")),
                        Cmp(CompareOp::kEq, Expr::ColumnIdx(2, "mid.g"),
                            Expr::ColumnIdx(4, "small.g"))),
              Expr::And(Cmp(CompareOp::kGt, Expr::ColumnIdx(1, "x"),
                            Expr::Arith(ArithOp::kSub, IntLit(1), IntLit(1))),
                        Cmp(CompareOp::kLt, Expr::ColumnIdx(3, "y"),
                            IntLit(100))))),
      {{Expr::ColumnIdx(1, "x"), "x"}});
  EXPECT_EQ(OptimizedText(plan, db, OptimizerOptions{}),
            "Project x AS x\n"
            "  Join (big.g = g)\n"
            "    Project g AS g\n"
            "      Join (g = r.g)\n"
            "        Project g AS g\n"
            "          Select (y < 100)\n"
            "            Scan mid\n"
            "        Project g AS g\n"
            "          Scan small\n"
            "    Select (x > 0)\n"
            "      Scan big");
}

TEST(OptimizerGolden, NegativeCrossPredicateStaysAtJoin) {
  WsdDb db = TwoTableDb();
  // References both sides: must not move below the join.
  auto plan = Plan::Select(Plan::Product(Plan::Scan("r"), Plan::Scan("s")),
                           Cmp(CompareOp::kLt, Col("b"), Col("c")));
  EXPECT_EQ(OptimizedText(plan, db, Only(&OptimizerOptions::push_predicates)),
            "Join (b < c)\n"
            "  Scan r\n"
            "  Scan s");
}

TEST(OptimizerGolden, NegativeErroringExprDoesNotFold) {
  WsdDb db = TwoTableDb();
  // 'x' = 1 errors at run time (type mismatch) — folding it would turn a
  // query error into a silent constant. It must stay in the plan.
  auto plan = Plan::Select(
      Plan::Scan("r"),
      Expr::And(Cmp(CompareOp::kEq, Expr::Const(Value::String("x")),
                    IntLit(1)),
                Cmp(CompareOp::kGt, Col("b"), IntLit(0))));
  EXPECT_EQ(OptimizedText(plan, db, Only(&OptimizerOptions::fold_constants)),
            "Select (('x' = 1) AND (b > 0))\n"
            "  Scan r");
}

TEST(OptimizerGolden, NegativePushdownThroughComputedProjection) {
  WsdDb db = TwoTableDb();
  // The select references a computed item — substituting it would change
  // which rows the computation runs on, so the rule must not fire.
  auto plan = Plan::Select(
      Plan::Project(Plan::Scan("r"),
                    {{Expr::Arith(ArithOp::kMul, Col("a"), IntLit(2)),
                      "a2"}}),
      Cmp(CompareOp::kGt, Col("a2"), IntLit(1)));
  EXPECT_EQ(OptimizedText(plan, db, Only(&OptimizerOptions::push_predicates)),
            "Select (a2 > 1)\n"
            "  Project (a * 2) AS a2\n"
            "    Scan r");
}

TEST(OptimizerGolden, PushdownThroughRenamingProjection) {
  WsdDb db = TwoTableDb();
  // Pure-column projection (the planner's alias renames): pushdown fires.
  auto plan = Plan::Select(
      Plan::Project(Plan::Scan("r"), {{Col("a"), "x.a"}, {Col("b"), "x.b"}}),
      Cmp(CompareOp::kGt, Col("x.b"), IntLit(1)));
  EXPECT_EQ(OptimizedText(plan, db, Only(&OptimizerOptions::push_predicates)),
            "Project a AS x.a, b AS x.b\n"
            "  Select (b > 1)\n"
            "    Scan r");
}

TEST(OptimizerGolden, MasterSwitchDisablesEverything) {
  WsdDb db = TwoTableDb();
  auto plan = Plan::Select(Plan::Product(Plan::Scan("r"), Plan::Scan("s")),
                           Cmp(CompareOp::kGt, Col("b"), IntLit(1)));
  OptimizerOptions off;
  off.enable = false;
  EXPECT_EQ(OptimizedText(plan, db, off), plan->ToString());
}

TEST(OptimizerGolden, ExplainCarriesCardinalities) {
  WsdDb db = SizedTablesDb();
  auto plan = Plan::Select(Plan::Scan("big"),
                           Cmp(CompareOp::kEq, Col("g"), IntLit(1)));
  auto text = ExplainPlan(plan, db);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text,
            "Select (g = 1)  [~2 rows]\n"
            "  Scan big  [~6 rows]  [shards 1/1]");
  auto rows = EstimateRows(plan, db);
  ASSERT_TRUE(rows.ok());
  EXPECT_NEAR(*rows, 2.0, 1e-9);  // 6 rows / 3 distinct g values
}

TEST(OptimizerGolden, ExplainReportsShardPruning) {
  WsdDb db;
  db.mutable_options().rows_per_shard = 2;
  MAYBMS_EXPECT_OK(db.CreateRelation(
      "t", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}})));
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(InsertTuple(&db, "t",
                            {CellSpec::Certain(Value::Int(i)),
                             CellSpec::Certain(Value::Int(-i))})
                    .ok());
  }
  // a is 0..7 in insertion order: shard ranges are [0,1],[2,3],[4,5],[6,7].
  auto plan = Plan::Select(Plan::Scan("t"),
                           Cmp(CompareOp::kGe, Col("a"), IntLit(6)));
  auto text = ExplainPlan(plan, db);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("[shards 1/4]"), std::string::npos) << *text;
  // The estimate is capped by the surviving shards' row count.
  auto rows = EstimateRows(plan, db);
  ASSERT_TRUE(rows.ok());
  EXPECT_LE(*rows, 2.0 + 1e-9);

  // A bare scan keeps everything.
  auto scan_text = ExplainPlan(Plan::Scan("t"), db);
  ASSERT_TRUE(scan_text.ok());
  EXPECT_NE(scan_text->find("[shards 4/4]"), std::string::npos) << *scan_text;
}

// Property: optimization preserves the answer distribution exactly.
class OptimizerEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerEquivalence, OptimizedPlanSameDistribution) {
  WsdDb db = TwoTableDb();
  std::vector<PlanPtr> plans;
  plans.push_back(Plan::Select(
      Plan::Product(Plan::Scan("r"), Plan::Scan("s")),
      Expr::And(Cmp(CompareOp::kEq, Col("a"), Col("s.a")),
                Cmp(CompareOp::kGt, Col("b"), IntLit(0)))));
  plans.push_back(Plan::Select(
      Plan::Product(Plan::Scan("r"), Plan::Scan("s")),
      Expr::Or(Cmp(CompareOp::kGt, Col("b"), IntLit(2)),
               Cmp(CompareOp::kLt, Col("c"), IntLit(8)))));
  plans.push_back(Plan::Project(
      Plan::Select(Plan::Select(Plan::Scan("r"),
                                Cmp(CompareOp::kGe, Col("a"), IntLit(0))),
                   Cmp(CompareOp::kGt, Col("b"), IntLit(0))),
      {{Col("b"), "b"}}));
  const PlanPtr& plan = plans[static_cast<size_t>(GetParam()) % plans.size()];

  auto raw = ExecuteLifted(plan, db);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto optimized_plan = Optimize(plan, db);
  ASSERT_TRUE(optimized_plan.ok());
  auto opt = ExecuteLifted(*optimized_plan, db);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();

  auto wa = EnumerateWorlds(*raw, 1u << 14);
  auto wb = EnumerateWorlds(*opt, 1u << 14);
  ASSERT_TRUE(wa.ok() && wb.ok());
  ExpectDistEq(testing_util::RelationDistribution(*wa, "result"),
               testing_util::RelationDistribution(*wb, "result"));
}

INSTANTIATE_TEST_SUITE_P(Plans, OptimizerEquivalence, ::testing::Range(0, 3));

}  // namespace
}  // namespace sql
}  // namespace maybms
