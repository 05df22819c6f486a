// Integration tests: the full census pipeline at oracle-checkable scale,
// SQL-driven end-to-end flows, and cross-module consistency (lifted
// engine vs SQL session vs enumeration vs sampling).
#include <gtest/gtest.h>

#include <map>

#include "chase/enforce.h"
#include "core/builder.h"
#include "core/confidence.h"
#include "core/lifted_executor.h"
#include "gen/census.h"
#include "gen/noise.h"
#include "gen/workload.h"
#include "ra/executor.h"
#include "sql/session.h"
#include "tests/test_util.h"
#include "worlds/enumerate.h"
#include "worlds/sample.h"

namespace maybms {
namespace {

using testing_util::CanonicalBag;
using testing_util::ExpectDistEq;

// A miniature census (oracle-enumerable world count) running the entire
// paper pipeline: noise -> cleaning -> queries, everything checked
// against explicit enumeration.
class MiniCensusPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    Catalog cat;
    MAYBMS_ASSERT_OK(cat.Create(GenerateCensus({40, 97})));
    MAYBMS_ASSERT_OK(cat.Create(GenerateStates()));
    db_ = FromCatalog(cat);
    NoiseOptions opt;
    opt.cell_fraction = 0.005;  // 40*49*0.005 ≈ 10 or-set cells
    opt.max_alternatives = 2;
    opt.wild_fraction = 0.3;
    opt.seed = 99;
    auto stats = ApplyOrSetNoise(&db_, "census", opt);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE(db_.WorldCountIfSmall(1u << 16).has_value())
        << "mini census must stay enumerable";
  }

  WsdDb db_;
};

TEST_F(MiniCensusPipeline, CleaningMatchesOracleConditioning) {
  // Oracle: a world is consistent iff it satisfies all constraints.
  auto violates = [](const Catalog& cat) {
    const Relation& r = *cat.Get("census").value();
    const Schema& s = r.schema();
    size_t age = *s.IndexOf("AGE"), marst = *s.IndexOf("MARST");
    size_t inctot = *s.IndexOf("INCTOT");
    size_t city = *s.IndexOf("CITY"), state = *s.IndexOf("STATEFIP");
    size_t pernum = *s.IndexOf("PERNUM");
    std::map<int64_t, int64_t> city_state;
    std::map<int64_t, bool> ids;
    for (const auto& row : r.rows()) {
      int64_t a = row[age].as_int();
      if (a < 0 || a > 90) return true;
      if (row[marst].as_int() == 1 && a < 15) return true;
      if (row[inctot].as_int() < 0) return true;
      auto [it, inserted] = ids.emplace(row[pernum].as_int(), true);
      if (!inserted) return true;
      auto [cit, cinserted] =
          city_state.emplace(row[city].as_int(), row[state].as_int());
      if (!cinserted && cit->second != row[state].as_int()) return true;
    }
    return false;
  };
  auto worlds = EnumerateWorlds(db_, 1u << 16);
  ASSERT_TRUE(worlds.ok());
  std::map<std::string, double> expected;
  double kept = 0;
  for (const auto& w : *worlds) {
    if (violates(w.catalog)) continue;
    kept += w.prob;
    expected[CanonicalBag(*w.catalog.Get("census").value())] += w.prob;
  }
  ASSERT_GT(kept, 0.0);
  for (auto& [key, p] : expected) p /= kept;

  auto stats = EnforceAll(&db_, CensusConstraints());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NEAR(stats->removed_mass, 1.0 - kept, 1e-9);
  MAYBMS_ASSERT_OK(db_.CheckInvariants());

  auto after = EnumerateWorlds(db_, 1u << 16);
  ASSERT_TRUE(after.ok());
  ExpectDistEq(expected, testing_util::RelationDistribution(*after, "census"),
               1e-9);
}

TEST_F(MiniCensusPipeline, AllWorkloadQueriesMatchOracle) {
  auto stats = EnforceAll(&db_, CensusConstraints());
  ASSERT_TRUE(stats.ok());
  for (const auto& q : CensusQueries()) {
    SCOPED_TRACE(q.id);
    // Oracle answer distribution.
    auto worlds = EnumerateWorlds(db_, 1u << 16);
    ASSERT_TRUE(worlds.ok());
    std::map<std::string, double> expected;
    for (const auto& w : *worlds) {
      auto answer = Execute(q.plan, w.catalog);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      expected[CanonicalBag(*answer)] += w.prob;
    }
    // Lifted answer distribution.
    auto lifted = ExecuteLifted(q.plan, db_);
    ASSERT_TRUE(lifted.ok()) << lifted.status().ToString();
    MAYBMS_ASSERT_OK(lifted->CheckInvariants());
    auto lifted_worlds = EnumerateWorlds(*lifted, 1u << 16);
    ASSERT_TRUE(lifted_worlds.ok());
    std::map<std::string, double> actual;
    for (const auto& w : *lifted_worlds) {
      actual[CanonicalBag(*w.catalog.Get("result").value())] += w.prob;
    }
    ExpectDistEq(expected, actual, 1e-9);
  }
}

TEST_F(MiniCensusPipeline, ConfMatchesSampling) {
  auto q1 = CensusQueries()[0].plan;
  auto answer = ExecuteLifted(q1, db_);
  ASSERT_TRUE(answer.ok());
  auto exact = ConfTable(*answer, "result");
  ASSERT_TRUE(exact.ok());
  SampleConfOptions opts;
  opts.samples = 4000;
  opts.seed = 7;
  auto approx = EstimateConfidenceBySampling(*answer, "result", opts);
  ASSERT_TRUE(approx.ok());
  std::map<std::string, double> approx_map;
  for (const auto& row : approx->rows()) {
    std::string key;
    for (size_t c = 0; c + 1 < row.size(); ++c) key += row[c].ToString() + "|";
    approx_map[key] = row.back().as_double();
  }
  for (const auto& row : exact->rows()) {
    std::string key;
    for (size_t c = 0; c + 1 < row.size(); ++c) key += row[c].ToString() + "|";
    double p = row.back().as_double();
    if (p > 0.05) {
      ASSERT_TRUE(approx_map.count(key)) << key;
      EXPECT_NEAR(approx_map[key], p, 0.08) << key;
    }
  }
}

TEST(SqlIntegration, FullScenarioScript) {
  sql::Session session;
  auto results = session.ExecuteScript(R"sql(
    CREATE TABLE patients (name STRING, age INT, diagnosis STRING);
    INSERT INTO patients VALUES
      ('ann', 34, {'flu': 0.7, 'cold': 0.3}),
      ('bob', {25: 0.5, 52: 0.5}, 'flu'),
      ('cid', 41, 'cold');
    ENFORCE CHECK (age >= 18) ON patients;
    SELECT name, PROB() FROM patients WHERE diagnosis = 'flu';
  )sql");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const auto& prob = results->back();
  ASSERT_EQ(prob.kind, sql::StatementResult::Kind::kTable);
  // ann has flu with 0.7; bob always (his age is 25-or-52, both >= 18,
  // conditioning does not remove him).
  std::map<std::string, double> conf;
  for (const auto& row : prob.table.rows()) {
    conf[row[0].as_string()] = row[1].as_double();
  }
  EXPECT_NEAR(conf["ann"], 0.7, 1e-9);
  EXPECT_NEAR(conf["bob"], 1.0, 1e-9);
  EXPECT_EQ(conf.count("cid"), 0u);
}

TEST(SqlIntegration, ConditioningChangesProbabilities) {
  sql::Session session;
  auto setup = session.ExecuteScript(R"sql(
    CREATE TABLE t (id INT, v INT);
    INSERT INTO t VALUES (1, {10: 0.5, -1: 0.5});
  )sql");
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  auto before = session.Execute("SELECT v, PROB() FROM t WHERE v = 10");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->table.NumRows(), 1u);
  EXPECT_NEAR(before->table.row(0)[1].as_double(), 0.5, 1e-12);
  // Conditioning on v >= 0 makes v = 10 certain.
  MAYBMS_ASSERT_OK(session.Execute("ENFORCE CHECK (v >= 0) ON t").status());
  auto after = session.Execute("SELECT v, PROB() FROM t WHERE v = 10");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->table.NumRows(), 1u);
  EXPECT_NEAR(after->table.row(0)[1].as_double(), 1.0, 1e-12);
}

TEST(SqlIntegration, CensusOverSqlSession) {
  Catalog cat;
  MAYBMS_ASSERT_OK(cat.Create(GenerateCensus({60, 3})));
  MAYBMS_ASSERT_OK(cat.Create(GenerateStates()));
  WsdDb db = FromCatalog(cat);
  NoiseOptions opt;
  opt.cell_fraction = 0.002;
  opt.seed = 5;
  ASSERT_TRUE(ApplyOrSetNoise(&db, "census", opt).ok());
  sql::Session session(std::move(db));

  auto ec = session.Execute("SELECT ECOUNT() FROM census WHERE AGE >= 65");
  ASSERT_TRUE(ec.ok()) << ec.status().ToString();
  double expected_count = ec->table.row(0)[0].as_double();
  EXPECT_GT(expected_count, 0.0);

  auto join = session.Execute(
      "POSSIBLE SELECT NAME FROM census, states "
      "WHERE STATEFIP = states.STATEFIP AND REGION = 'West'");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_GT(join->table.NumRows(), 0u);

  auto explain = session.Execute(
      "EXPLAIN SELECT NAME FROM census, states "
      "WHERE STATEFIP = states.STATEFIP AND REGION = 'West'");
  ASSERT_TRUE(explain.ok());
  // The optimizer must have turned the product into a join and pushed the
  // region selection to the states side.
  EXPECT_NE(explain->message.find("Join"), std::string::npos)
      << explain->message;
}

TEST(SqlIntegration, ShellStyleWorldInspection) {
  sql::Session session;
  MAYBMS_ASSERT_OK(session.Execute("CREATE TABLE d (x INT)").status());
  MAYBMS_ASSERT_OK(
      session.Execute("INSERT INTO d VALUES ({1: 0.9, 2: 0.1})").status());
  auto worlds = session.Execute("SHOW WORLDS");
  ASSERT_TRUE(worlds.ok());
  EXPECT_NE(worlds->message.find("2 distinct world"), std::string::npos)
      << worlds->message;
  EXPECT_NE(worlds->message.find("0.9"), std::string::npos);
}

}  // namespace
}  // namespace maybms
