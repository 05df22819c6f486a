// Edge cases of the lifted operators: empty inputs, shared slots, zero-
// column projections, resource budgets, unsupported plan nodes, and
// operator pipelines that stress normalization interplay.
#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/confidence.h"
#include "core/lifted.h"
#include "core/lifted_executor.h"
#include "core/lifted_internal.h"
#include "core/normalize.h"
#include "ra/executor.h"
#include "tests/test_util.h"
#include "worlds/enumerate.h"

namespace maybms {
namespace {

// Every lifted operator in this suite cross-checks its scoped
// normalization against a full Normalize of a copy.
const testing_util::ScopedNormalizeCrossCheck kNormalizeCrossCheck;

using testing_util::MedicalExample;

ExprPtr Col(const std::string& n) { return Expr::Column(n); }
ExprPtr Lit(Value v) { return Expr::Const(std::move(v)); }

WsdDb EmptyRelationDb() {
  WsdDb db;
  Status st = db.CreateRelation(
      "e", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  EXPECT_TRUE(st.ok());
  return db;
}

TEST(LiftedEdge, OperatorsOnEmptyRelation) {
  {
    WsdDb db = EmptyRelationDb();
    MAYBMS_ASSERT_OK(LiftedSelect(
        &db, "e", Expr::Compare(CompareOp::kEq, Col("a"), Lit(Value::Int(1))),
        "out"));
    EXPECT_EQ(db.GetRelation("out").value()->NumTuples(), 0u);
  }
  {
    WsdDb db = EmptyRelationDb();
    MAYBMS_ASSERT_OK(LiftedProject(&db, "e", {{Col("a"), "a"}}, "out"));
    EXPECT_EQ(db.GetRelation("out").value()->NumTuples(), 0u);
    EXPECT_EQ(db.GetRelation("out").value()->schema().size(), 1u);
  }
  {
    WsdDb db = EmptyRelationDb();
    MAYBMS_ASSERT_OK(db.CreateRelation("f", db.GetRelation("e").value()
                                                ->schema()));
    MAYBMS_ASSERT_OK(LiftedProduct(&db, "e", "f", "out"));
    EXPECT_EQ(db.GetRelation("out").value()->NumTuples(), 0u);
  }
  {
    WsdDb db = EmptyRelationDb();
    MAYBMS_ASSERT_OK(db.CreateRelation("f", db.GetRelation("e").value()
                                                ->schema()));
    MAYBMS_ASSERT_OK(LiftedDifference(&db, "e", "f", "out"));
    EXPECT_EQ(db.GetRelation("out").value()->NumTuples(), 0u);
  }
  {
    WsdDb db = EmptyRelationDb();
    MAYBMS_ASSERT_OK(LiftedDistinct(&db, "e", "out"));
    EXPECT_EQ(db.GetRelation("out").value()->NumTuples(), 0u);
  }
}

TEST(LiftedEdge, ZeroColumnProjection) {
  WsdDb db = MedicalExample();
  auto plan = Plan::Project(
      Plan::Select(Plan::Scan("R"),
                   Expr::Compare(CompareOp::kEq, Col("Diagnosis"),
                                 Lit(Value::String("pregnancy")))),
      {});
  auto result = ExecuteLifted(plan, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Confidence of the empty vector = P(answer non-empty) = 0.4.
  auto conf = ConfTable(*result, "result");
  ASSERT_TRUE(conf.ok());
  ASSERT_EQ(conf->NumRows(), 1u);
  EXPECT_NEAR(conf->row(0)[0].as_double(), 0.4, 1e-12);
}

TEST(LiftedEdge, ProjectionDuplicatingUncertainColumn) {
  WsdDb db = MedicalExample();
  // Both output columns reference the same slot: values co-vary.
  auto plan = Plan::Project(Plan::Scan("R"),
                            {{Col("Symptom"), "s1"}, {Col("Symptom"), "s2"}});
  auto result = ExecuteLifted(plan, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto worlds = EnumerateWorlds(*result);
  ASSERT_TRUE(worlds.ok());
  for (const auto& w : *worlds) {
    for (const auto& row : w.catalog.Get("result").value()->rows()) {
      EXPECT_EQ(row[0], row[1]);
    }
  }
}

TEST(LiftedEdge, SelectOnComputedProjection) {
  // Pipeline: project a computed expression over an uncertain field,
  // then select on it. The computed slot lives in the original component.
  WsdDb db;
  MAYBMS_ASSERT_OK(db.CreateRelation("r", Schema({{"x", ValueType::kInt}})));
  ASSERT_TRUE(InsertTuple(&db, "r",
                          {CellSpec::OrSet({{Value::Int(1), 0.25},
                                            {Value::Int(2), 0.75}})})
                  .ok());
  auto plan = Plan::Select(
      Plan::Project(Plan::Scan("r"),
                    {{Expr::Arith(ArithOp::kMul, Col("x"),
                                  Lit(Value::Int(10))),
                      "x10"}}),
      Expr::Compare(CompareOp::kEq, Col("x10"), Lit(Value::Int(20))));
  auto result = ExecuteLifted(plan, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto conf = ConfTable(*result, "result");
  ASSERT_TRUE(conf.ok());
  ASSERT_EQ(conf->NumRows(), 1u);
  EXPECT_EQ(conf->row(0)[0], Value::Int(20));
  EXPECT_NEAR(conf->row(0)[1].as_double(), 0.75, 1e-12);
}

TEST(LiftedEdge, MergeBudgetSurfacesCleanly) {
  WsdDb db;
  MAYBMS_ASSERT_OK(db.CreateRelation(
      "r", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}})));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(InsertTuple(&db, "r",
                            {CellSpec::UniformOrSet({Value::Int(0),
                                                     Value::Int(1)}),
                             CellSpec::UniformOrSet({Value::Int(0),
                                                     Value::Int(1)})})
                    .ok());
  }
  db.mutable_options().max_component_rows = 2;  // any merge is too big
  auto pred = Expr::Compare(CompareOp::kEq, Col("a"), Col("b"));
  Status st = LiftedSelect(&db, "r", pred, "out");
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(LiftedEdge, RenameRelationErrors) {
  WsdDb db = EmptyRelationDb();
  EXPECT_EQ(RenameRelation(&db, "missing", "x").code(),
            StatusCode::kNotFound);
  MAYBMS_ASSERT_OK(db.CreateRelation("f", Schema({{"a", ValueType::kInt}})));
  EXPECT_EQ(RenameRelation(&db, "e", "f").code(),
            StatusCode::kAlreadyExists);
  MAYBMS_ASSERT_OK(RenameRelation(&db, "e", "E"));  // case-insensitive noop
}

TEST(LiftedEdge, UnsupportedPlanNodes) {
  WsdDb db = MedicalExample();
  EXPECT_EQ(ExecuteLifted(Plan::Limit(Plan::Scan("R"), 1), db)
                .status()
                .code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(ExecuteLifted(
                Plan::Aggregate(Plan::Scan("R"), {},
                                {{AggFunc::kCount, nullptr, "n"}}),
                db)
                .status()
                .code(),
            StatusCode::kUnsupported);
}

TEST(LiftedEdge, SortOverUncertainColumnUnsupported) {
  WsdDb db = MedicalExample();
  EXPECT_EQ(
      ExecuteLifted(Plan::Sort(Plan::Scan("R"), {"Symptom"}, {false}), db)
          .status()
          .code(),
      StatusCode::kUnsupported);
  // Sorting by a certain-after-selection column works.
  auto plan = Plan::Sort(
      Plan::Select(Plan::Scan("R"),
                   Expr::Compare(CompareOp::kEq, Col("Diagnosis"),
                                 Lit(Value::String("obesity")))),
      {"Test"}, {false});
  auto result = ExecuteLifted(plan, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(LiftedEdge, UnionTypeMismatch) {
  WsdDb db;
  MAYBMS_ASSERT_OK(db.CreateRelation("a", Schema({{"x", ValueType::kInt}})));
  MAYBMS_ASSERT_OK(
      db.CreateRelation("b", Schema({{"x", ValueType::kString}})));
  EXPECT_EQ(LiftedUnion(&db, "a", "b", "out").code(),
            StatusCode::kTypeMismatch);
}

TEST(LiftedEdge, DifferenceRemovesCertainDuplicateStatically) {
  WsdDb db;
  MAYBMS_ASSERT_OK(db.CreateRelation("l", Schema({{"x", ValueType::kInt}})));
  MAYBMS_ASSERT_OK(db.CreateRelation("r", Schema({{"x", ValueType::kInt}})));
  ASSERT_TRUE(InsertTuple(&db, "l", {CellSpec::Certain(Value::Int(1))}).ok());
  ASSERT_TRUE(InsertTuple(&db, "l", {CellSpec::Certain(Value::Int(2))}).ok());
  ASSERT_TRUE(InsertTuple(&db, "r", {CellSpec::Certain(Value::Int(1))}).ok());
  MAYBMS_ASSERT_OK(LiftedDifference(&db, "l", "r", "out"));
  const WsdRelation* out = db.GetRelation("out").value();
  ASSERT_EQ(out->NumTuples(), 1u);
  EXPECT_EQ(out->tuple(0).cells[0].value(), Value::Int(2));
  // No components were created for the static kill.
  EXPECT_EQ(db.NumLiveComponents(), 0u);
}

TEST(LiftedEdge, DistinctReordersButPreservesDistribution) {
  // Uncertain tuple first, certain duplicates later: the reorder pass
  // must not change the answer distribution.
  WsdDb db;
  MAYBMS_ASSERT_OK(db.CreateRelation("r", Schema({{"x", ValueType::kInt}})));
  ASSERT_TRUE(InsertTuple(&db, "r",
                          {CellSpec::OrSet({{Value::Int(1), 0.5},
                                            {Value::Int(2), 0.5}})})
                  .ok());
  ASSERT_TRUE(InsertTuple(&db, "r", {CellSpec::Certain(Value::Int(1))}).ok());
  auto expected = [&] {
    std::map<std::string, double> dist;
    auto worlds = EnumerateWorlds(db);
    EXPECT_TRUE(worlds.ok());
    for (const auto& w : *worlds) {
      Relation rel = *w.catalog.Get("r").value();
      // Per-world set semantics.
      rel.SortRows();
      std::string key;
      Value prev = Value::Bottom();
      for (const auto& row : rel.rows()) {
        if (!(row[0] == prev)) key += row[0].ToString() + ";";
        prev = row[0];
      }
      dist[key] += w.prob;
    }
    return dist;
  }();
  MAYBMS_ASSERT_OK(LiftedDistinct(&db, "r", "out"));
  MAYBMS_ASSERT_OK(db.CheckInvariants());
  std::map<std::string, double> actual;
  auto worlds = EnumerateWorlds(db);
  ASSERT_TRUE(worlds.ok());
  for (const auto& w : *worlds) {
    Relation rel = *w.catalog.Get("out").value();
    rel.SortRows();
    std::string key;
    for (const auto& row : rel.rows()) key += row[0].ToString() + ";";
    actual[key] += w.prob;
  }
  for (const auto& [key, p] : expected) {
    ASSERT_TRUE(actual.count(key)) << key;
    EXPECT_NEAR(actual[key], p, 1e-9) << key;
  }
}

TEST(LiftedEdge, SelfJoinPreservesCorrelation) {
  // R ⋈ R on the uncertain column: both sides resolve identically per
  // world, so every pair matches (the same tuple paired with itself).
  WsdDb db;
  MAYBMS_ASSERT_OK(db.CreateRelation("r", Schema({{"x", ValueType::kInt}})));
  ASSERT_TRUE(InsertTuple(&db, "r",
                          {CellSpec::OrSet({{Value::Int(1), 0.5},
                                            {Value::Int(2), 0.5}})})
                  .ok());
  auto pred = Expr::Compare(CompareOp::kEq, Expr::ColumnIdx(0, "x"),
                            Expr::ColumnIdx(1, "r.x"));
  auto plan = Plan::Join(Plan::Scan("r"), Plan::Scan("r"), pred);
  auto result = ExecuteLifted(plan, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto ec = ExpectedCount(*result, "result");
  ASSERT_TRUE(ec.ok());
  // In every world the single tuple joins with itself exactly once.
  EXPECT_NEAR(*ec, 1.0, 1e-12);
}

// --- certain conjuncts first and scoped normalization ----------------------

ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return Expr::Compare(op, std::move(l), std::move(r));
}

// r(k INT, v STRING, w STRING): k certain, v and w two-way or-sets in
// components of their own.
WsdDb KeyedOrSetDb(const std::vector<int64_t>& keys) {
  WsdDb db;
  EXPECT_TRUE(db.CreateRelation("r", Schema({{"k", ValueType::kInt},
                                             {"v", ValueType::kString},
                                             {"w", ValueType::kString}}))
                  .ok());
  for (int64_t k : keys) {
    EXPECT_TRUE(InsertTuple(&db, "r",
                            {CellSpec::Certain(Value::Int(k)),
                             CellSpec::OrSet({{Value::String("a"), 0.5},
                                              {Value::String("b"), 0.5}}),
                             CellSpec::OrSet({{Value::String("a"), 0.3},
                                              {Value::String("c"), 0.7}})})
                    .ok());
  }
  return db;
}

// The answer distribution of `plan` lifted equals running it in every
// world of `db` (the enumeration oracle).
void ExpectMatchesWorlds(const PlanPtr& plan, const WsdDb& db) {
  auto lifted = ExecuteLifted(plan, db);
  ASSERT_TRUE(lifted.ok()) << lifted.status().ToString();
  MAYBMS_ASSERT_OK(lifted->CheckInvariants());
  auto out = EnumerateWorlds(*lifted);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto in = EnumerateWorlds(db);
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  std::map<std::string, double> expected;
  for (const auto& w : *in) {
    auto rel = Execute(plan, w.catalog);
    ASSERT_TRUE(rel.ok()) << rel.status().ToString();
    expected[testing_util::CanonicalBag(*rel)] += w.prob;
  }
  testing_util::ExpectDistEq(
      expected, testing_util::RelationDistribution(*out, "result"));
}

TEST(CertainFirst, ErroringConjunctKeepsItsStatus) {
  WsdDb db = KeyedOrSetDb({0, 1, 2});
  auto bad = Cmp(CompareOp::kGt, Col("v"), Lit(Value::Int(3)));  // str > int
  auto none = Cmp(CompareOp::kEq, Col("k"), Lit(Value::Int(7)));
  auto one = Cmp(CompareOp::kEq, Col("k"), Lit(Value::Int(1)));
  auto run = [&](const ExprPtr& pred) {
    return ExecuteLifted(Plan::Select(Plan::Scan("r"), pred), db).status();
  };
  // The erroring conjunct comes first: AND evaluates it on every tuple,
  // so the certain conjunct after it must not hide the error.
  Status first = run(Expr::And(bad, none));
  EXPECT_EQ(first.code(), StatusCode::kTypeMismatch) << first.ToString();
  EXPECT_NE(first.message().find("cannot compare"), std::string::npos);
  // A certain conjunct first that rejects every tuple: AND never reaches
  // the erroring one, with or without the prefilter.
  MAYBMS_EXPECT_OK(run(Expr::And(none, bad)));
  // ... and one tuple it keeps reaches it, with the same error as when
  // the erroring conjunct runs first.
  Status kept = run(Expr::And(one, bad));
  EXPECT_EQ(kept.code(), first.code());
  EXPECT_EQ(kept.message(), first.message());
  // A certain conjunct that errors itself is not a rejection.
  auto certain_bad = Cmp(CompareOp::kGt, Col("k"), Lit(Value::String("x")));
  Status both = run(Expr::And(certain_bad, none));
  EXPECT_EQ(both.code(), StatusCode::kTypeMismatch) << both.ToString();
}

TEST(CertainFirst, MergeBudgetStillCoversRejectedTuples) {
  // v = w spans two 2-row components per tuple: a merge of 4 rows, over
  // a budget of 3. Merges run for every tuple before any is evaluated,
  // so the statement fails even when a certain conjunct rejects them all
  // — with the same Status as when that conjunct comes last.
  WsdDb db = KeyedOrSetDb({0, 1, 2});
  db.mutable_options().max_component_rows = 3;
  auto cross = Cmp(CompareOp::kEq, Col("v"), Col("w"));
  auto none = Cmp(CompareOp::kEq, Col("k"), Lit(Value::Int(7)));
  auto run = [&](const ExprPtr& pred) {
    return ExecuteLifted(Plan::Select(Plan::Scan("r"), pred), db).status();
  };
  Status prefiltered = run(Expr::And(none, cross));
  Status last = run(Expr::And(cross, none));
  EXPECT_EQ(prefiltered.code(), StatusCode::kResourceExhausted)
      << prefiltered.ToString();
  EXPECT_EQ(prefiltered.code(), last.code());
  EXPECT_EQ(prefiltered.message(), last.message());
}

TEST(CertainFirst, UnnormalizedBaseReadsLikeANormalizedOne) {
  // The stored database need not be normal: a one-alternative or-set is
  // a one-row component, and duplicate alternatives are separate rows.
  // Whatever the plan reads must come out exactly as if the whole input
  // had been normalized first.
  WsdDb db;
  MAYBMS_ASSERT_OK(db.CreateRelation(
      "r", Schema({{"k", ValueType::kInt}, {"v", ValueType::kString}})));
  ASSERT_TRUE(InsertTuple(&db, "r",
                          {CellSpec::Certain(Value::Int(1)),
                           CellSpec::OrSet({{Value::String("x"), 1.0}})})
                  .ok());
  ASSERT_TRUE(InsertTuple(&db, "r",
                          {CellSpec::Certain(Value::Int(2)),
                           CellSpec::OrSet({{Value::String("a"), 0.25},
                                            {Value::String("a"), 0.25},
                                            {Value::String("b"), 0.5}})})
                  .ok());
  ASSERT_TRUE(InsertTuple(&db, "r",
                          {CellSpec::Certain(Value::Int(3)),
                           CellSpec::OrSet({{Value::String("y"), 1.0}})})
                  .ok());
  WsdDb normalized = db;
  MAYBMS_ASSERT_OK(Normalize(&normalized).status());
  auto k_le_2 = Cmp(CompareOp::kLe, Col("k"), Lit(Value::Int(2)));
  auto k_is_2 = Cmp(CompareOp::kEq, Col("k"), Lit(Value::Int(2)));
  auto same_v = Cmp(CompareOp::kEq, Expr::ColumnIdx(1, "v"),
                    Expr::ColumnIdx(3, "r.v"));
  const PlanPtr plans[] = {
      Plan::Select(Plan::Scan("r"), k_le_2),
      Plan::Scan("r"),
      Plan::Sort(Plan::Scan("r"), {"k"}, {true}),
      Plan::Join(Plan::Select(Plan::Scan("r"), k_is_2), Plan::Scan("r"),
                 same_v),
  };
  for (const PlanPtr& plan : plans) {
    SCOPED_TRACE(plan->ToString());
    auto raw = ExecuteLifted(plan, db);
    auto norm = ExecuteLifted(plan, normalized);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    ASSERT_TRUE(norm.ok()) << norm.status().ToString();
    testing_util::ExpectNormalizeChangesNothing(*raw);
    auto conf_raw = ConfTable(*raw, "result");
    auto conf_norm = ConfTable(*norm, "result");
    ASSERT_TRUE(conf_raw.ok() && conf_norm.ok());
    EXPECT_EQ(conf_raw->ToString(), conf_norm->ToString());
    ExpectMatchesWorlds(plan, db);
  }
}

TEST(CertainFirst, SelfJoinCopiesSharingOwnersArePrefiltered) {
  WsdDb db = KeyedOrSetDb({0, 1, 1, 2});
  // A selection on one scan copy while the other copy, which shares its
  // owners, is still unread: the uncertain conjunct takes the
  // existence-slot path for the tuples the certain one keeps.
  auto k_is_1 = Cmp(CompareOp::kEq, Col("k"), Lit(Value::Int(1)));
  auto v_is_a = Cmp(CompareOp::kEq, Col("v"), Lit(Value::String("a")));
  auto same_k = Cmp(CompareOp::kEq, Expr::ColumnIdx(0, "k"),
                    Expr::ColumnIdx(3, "r.k"));
  ExpectMatchesWorlds(
      Plan::Join(Plan::Select(Plan::Scan("r"), Expr::And(k_is_1, v_is_a)),
                 Plan::Scan("r"), same_k),
      db);
  // The product pairs every tuple with every tuple of the same relation,
  // so each owner gates several pairs; the certain conjuncts reject most
  // pairs before the uncertain ones add existence slots.
  auto pred = Expr::And(
      Expr::And(Cmp(CompareOp::kEq, Expr::ColumnIdx(0, "k"),
                    Lit(Value::Int(1))),
                Cmp(CompareOp::kEq, Expr::ColumnIdx(3, "r.k"),
                    Expr::ColumnIdx(0, "k"))),
      Expr::And(Cmp(CompareOp::kEq, Expr::ColumnIdx(1, "v"),
                    Lit(Value::String("a"))),
                Cmp(CompareOp::kEq, Expr::ColumnIdx(5, "r.w"),
                    Lit(Value::String("c")))));
  ExpectMatchesWorlds(
      Plan::Select(Plan::Product(Plan::Scan("r"), Plan::Scan("r")), pred),
      db);
}

TEST(CertainFirst, TupleNoRowLetsPassIsDroppedAtOnce) {
  // The tuple owns its component alone (the in-place ⊥ path), and no row
  // passes: the filter drops it itself, without marking the component.
  WsdDb db = KeyedOrSetDb({0, 1});
  const ComponentId v_of_first =
      db.GetRelation("r").value()->tuple(0).cells[1].ref().cid;
  const Component before = db.component(v_of_first);
  auto pred = Expr::Or(
      Cmp(CompareOp::kEq, Col("v"), Lit(Value::String("z"))),
      Cmp(CompareOp::kEq, Col("k"), Lit(Value::Int(1))));
  auto bound = pred->BindAgainst(db.GetRelation("r").value()->schema());
  ASSERT_TRUE(bound.ok());
  NormalizeScope touched;
  MAYBMS_ASSERT_OK(lifted_internal::FilterRelationInPlace(&db, "r", *bound,
                                                          {}, &touched));
  const WsdRelation* rel = db.GetRelation("r").value();
  ASSERT_EQ(rel->NumTuples(), 1u);
  EXPECT_EQ(rel->tuple(0).cells[0].value(), Value::Int(1));
  // Left for normalization to collect, untouched.
  const Component& after = db.component(v_of_first);
  ASSERT_EQ(after.NumRows(), before.NumRows());
  for (size_t r = 0; r < after.NumRows(); ++r) {
    EXPECT_FALSE(after.IsBottomAt(r, 0));
  }
}

TEST(ScopedNormalize, PointReadVisitsOnlyWhatItReads) {
  // 64 readings, 4 of them at k = 1; each reading has two components.
  // The read releases the other 120 components unvisited.
  std::vector<int64_t> keys;
  for (int i = 0; i < 64; ++i) keys.push_back(i % 16);
  WsdDb db = KeyedOrSetDb(keys);
  // The cross-check's full runs count too; leave it out of this read.
  SetScopedNormalizeCheckForTesting(nullptr);
  const uint64_t visited = NormalizeComponentsVisitedTotal();
  const uint64_t released = NormalizeComponentsReleasedTotal();
  auto result = ExecuteLifted(
      Plan::Select(Plan::Scan("r"),
                   Cmp(CompareOp::kEq, Col("k"), Lit(Value::Int(1)))),
      db);
  const uint64_t visits = NormalizeComponentsVisitedTotal() - visited;
  const uint64_t releases = NormalizeComponentsReleasedTotal() - released;
  SetScopedNormalizeCheckForTesting(
      &testing_util::ExpectNormalizeChangesNothing);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->GetRelation("result").value()->NumTuples(), 4u);
  EXPECT_EQ(releases, 120u);
  EXPECT_LE(visits, 2u * 8u);
}

}  // namespace
}  // namespace maybms
