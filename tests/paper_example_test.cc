// Step-by-step reproduction of the paper's Section 2 walk-through:
//
//   select Test from R where Diagnosis = 'pregnancy'
//
// on the medical WSD. The paper derives, after selection, normalization
// and projection, the WSD
//
//     r1.Test  p
//     ultrasound 0.4
//     ⊥          0.6
//
// i.e. "the ultrasound test is recommended in pregnancy diagnosis with
// probability 0.4". These tests assert exactly that pipeline, including
// the intermediate three-world stage and the final conf() result.
#include <gtest/gtest.h>

#include "core/confidence.h"
#include "core/lifted.h"
#include "core/lifted_executor.h"
#include "core/normalize.h"
#include "ra/plan.h"
#include "tests/test_util.h"
#include "worlds/enumerate.h"

namespace maybms {
namespace {

// Every lifted operator in this suite cross-checks its scoped
// normalization against a full Normalize of a copy.
const testing_util::ScopedNormalizeCrossCheck kNormalizeCrossCheck;

using testing_util::CanonicalBag;
using testing_util::MedicalExample;

ExprPtr PregnancyPredicate() {
  return Expr::Compare(CompareOp::kEq, Expr::Column("Diagnosis"),
                       Expr::Const(Value::String("pregnancy")));
}

TEST(PaperExample, SelectionYieldsThreeWorlds) {
  WsdDb db = MedicalExample();
  MAYBMS_ASSERT_OK(LiftedSelect(&db, "R", PregnancyPredicate(), "ans"));
  MAYBMS_ASSERT_OK(db.CheckInvariants());

  auto worlds = EnumerateWorlds(db);
  ASSERT_TRUE(worlds.ok()) << worlds.status().ToString();
  auto merged = MergeEqualWorlds(std::move(*worlds));
  // Paper: "This answer represents three worlds: {(pregnancy, ultrasound,
  // weight gain)}, {(pregnancy, ultrasound, fatigue)}, and the empty
  // world", with probabilities 0.28, 0.12, 0.6.
  ASSERT_EQ(merged.size(), 3u);
  double p_empty = 0, p_wg = 0, p_fat = 0;
  for (const auto& w : merged) {
    const Relation& r = *w.catalog.Get("ans").value();
    if (r.NumRows() == 0) {
      p_empty = w.prob;
    } else {
      ASSERT_EQ(r.NumRows(), 1u);
      EXPECT_EQ(r.row(0)[0], Value::String("pregnancy"));
      EXPECT_EQ(r.row(0)[1], Value::String("ultrasound"));
      if (r.row(0)[2] == Value::String("weight gain")) p_wg = w.prob;
      if (r.row(0)[2] == Value::String("fatigue")) p_fat = w.prob;
    }
  }
  EXPECT_NEAR(p_empty, 0.6, 1e-12);
  EXPECT_NEAR(p_wg, 0.28, 1e-12);
  EXPECT_NEAR(p_fat, 0.12, 1e-12);
}

TEST(PaperExample, NormalizationDropsR2Components) {
  WsdDb db = MedicalExample();
  MAYBMS_ASSERT_OK(LiftedSelect(&db, "R", PregnancyPredicate(), "ans"));
  // After normalization the certain r2 tuple is gone (it fails the
  // selection in every world) and only r1's components remain.
  const WsdRelation* rel = db.GetRelation("ans").value();
  EXPECT_EQ(rel->NumTuples(), 1u);
  EXPECT_LE(db.NumLiveComponents(), 2u);
}

TEST(PaperExample, ProjectionGivesPaperFinalWsd) {
  WsdDb db = MedicalExample();
  MAYBMS_ASSERT_OK(LiftedSelect(&db, "R", PregnancyPredicate(), "tmp"));
  MAYBMS_ASSERT_OK(
      LiftedProject(&db, "tmp", {{Expr::Column("Test"), "Test"}}, "ans"));
  MAYBMS_ASSERT_OK(db.CheckInvariants());

  // Exactly the paper's final WSD: one tuple, one component with two rows
  // (ultrasound 0.4 | ⊥ 0.6).
  const WsdRelation* rel = db.GetRelation("ans").value();
  ASSERT_EQ(rel->NumTuples(), 1u);
  ASSERT_EQ(db.NumLiveComponents(), 1u);
  const Component& c = db.component(db.LiveComponents()[0]);
  ASSERT_EQ(c.NumRows(), 2u);
  double p_ultra = 0, p_bottom = 0;
  for (size_t r = 0; r < c.NumRows(); ++r) {
    // The surviving tuple's Test slot:
    const Cell& cell = rel->tuple(0).cells[0];
    ASSERT_TRUE(cell.is_ref());
    Value v = c.ValueAt(r, cell.ref().slot);
    if (v == Value::String("ultrasound")) p_ultra = c.prob(r);
    if (v.is_bottom()) p_bottom = c.prob(r);
  }
  EXPECT_NEAR(p_ultra, 0.4, 1e-12);
  EXPECT_NEAR(p_bottom, 0.6, 1e-12);

  // World view: {ultrasound} with 0.4, {} with 0.6.
  auto worlds = EnumerateWorlds(db);
  ASSERT_TRUE(worlds.ok());
  auto merged = MergeEqualWorlds(std::move(*worlds));
  ASSERT_EQ(merged.size(), 2u);
}

TEST(PaperExample, ProbQueryReturnsPointFour) {
  WsdDb db = MedicalExample();
  auto plan = Plan::Project(
      Plan::Select(Plan::Scan("R"), PregnancyPredicate()),
      {{Expr::Column("Test"), "Test"}});
  auto result = ExecuteLifted(plan, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // prob() construct: probability of ultrasound being recommended = 0.4.
  auto conf = ConfTable(*result, "result");
  ASSERT_TRUE(conf.ok()) << conf.status().ToString();
  ASSERT_EQ(conf->NumRows(), 1u);
  EXPECT_EQ(conf->row(0)[0], Value::String("ultrasound"));
  EXPECT_NEAR(conf->row(0)[1].as_double(), 0.4, 1e-12);
}

TEST(PaperExample, SelectionOnNonMatchingValueGivesEmptyWorldSet) {
  WsdDb db = MedicalExample();
  auto pred = Expr::Compare(CompareOp::kEq, Expr::Column("Diagnosis"),
                            Expr::Const(Value::String("flu")));
  MAYBMS_ASSERT_OK(LiftedSelect(&db, "R", pred, "ans"));
  const WsdRelation* rel = db.GetRelation("ans").value();
  EXPECT_EQ(rel->NumTuples(), 0u);
  EXPECT_EQ(db.NumLiveComponents(), 0u);
}

TEST(PaperExample, SelectionOnCertainTupleKeepsIt) {
  WsdDb db = MedicalExample();
  auto pred = Expr::Compare(CompareOp::kEq, Expr::Column("Diagnosis"),
                            Expr::Const(Value::String("obesity")));
  MAYBMS_ASSERT_OK(LiftedSelect(&db, "R", pred, "ans"));
  const WsdRelation* rel = db.GetRelation("ans").value();
  ASSERT_EQ(rel->NumTuples(), 1u);
  // r2 is certain: the answer has one world with exactly that tuple.
  EXPECT_EQ(db.NumLiveComponents(), 0u);
  EXPECT_TRUE(rel->tuple(0).cells[1].is_certain());
  EXPECT_EQ(rel->tuple(0).cells[1].value(), Value::String("BMI"));
}

TEST(PaperExample, SymptomQueryCombinesBothTuples) {
  // select Symptom from R where Symptom = 'weight gain': r1 contributes in
  // 70% of worlds, r2 always.
  WsdDb db = MedicalExample();
  auto pred = Expr::Compare(CompareOp::kEq, Expr::Column("Symptom"),
                            Expr::Const(Value::String("weight gain")));
  auto plan = Plan::Project(Plan::Select(Plan::Scan("R"), pred),
                            {{Expr::Column("Symptom"), "Symptom"}});
  auto result = ExecuteLifted(plan, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto conf = ConfTable(*result, "result");
  ASSERT_TRUE(conf.ok());
  ASSERT_EQ(conf->NumRows(), 1u);
  EXPECT_EQ(conf->row(0)[0], Value::String("weight gain"));
  EXPECT_NEAR(conf->row(0)[1].as_double(), 1.0, 1e-12);  // r2 is certain

  // Expected cardinality: 1 (r2) + 0.7 (r1) = 1.7.
  auto ec = ExpectedCount(*result, "result");
  ASSERT_TRUE(ec.ok());
  EXPECT_NEAR(*ec, 1.7, 1e-12);
}

}  // namespace
}  // namespace maybms
