// Tests for the anytime approximate confidence engine: bracket
// soundness at every anytime step, statistical unbiasedness of the
// sampling estimator, interval coverage against the exact path, and
// thread-count-independent determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/approx_conf.h"
#include "core/cluster.h"
#include "core/confidence.h"
#include "tests/test_util.h"

namespace maybms {
namespace {

using testing_util::MedicalExample;
using testing_util::RandomWsd;
using testing_util::RandomWsdOptions;

// One independence cluster shared by many tuples: `slots` binary or-sets
// merged into one component (2^slots joint states) referenced
// round-robin by `tuples` tuples. Small sibling of the bench generator.
WsdDb SharedGroup(size_t slots, size_t tuples) {
  WsdDb db;
  Status st = db.CreateRelation(
      "r", Schema({{"id", ValueType::kInt}, {"v", ValueType::kInt}}));
  MAYBMS_CHECK(st.ok());
  WsdRelation* rel = db.GetMutableRelation("r").value();
  std::vector<ComponentId> comps;
  for (size_t s = 0; s < slots; ++s) {
    auto h = InsertTuple(
        &db, "r",
        {CellSpec::Certain(Value::Int(static_cast<int64_t>(s))),
         CellSpec::OrSet({{Value::Int(2 * static_cast<int64_t>(s)), 0.5},
                          {Value::Int(2 * static_cast<int64_t>(s) + 1),
                           0.5}})});
    MAYBMS_CHECK(h.ok());
    comps.push_back(rel->tuple(h->index).cells[1].ref().cid);
  }
  auto merged = db.MergeComponents(comps, 1u << 20);
  MAYBMS_CHECK(merged.ok()) << merged.status().ToString();
  for (size_t m = slots; m < tuples; ++m) {
    WsdTuple t;
    t.cells.push_back(Cell::Certain(Value::Int(static_cast<int64_t>(m))));
    t.cells.push_back(
        Cell::Ref({*merged, static_cast<uint32_t>(m % slots)}));
    rel->Add(std::move(t));
  }
  return db;
}

std::string Key(const Tuple& row, size_t ncols) {
  std::string key;
  for (size_t c = 0; c < ncols; ++c) key += row[c].ToString() + "|";
  return key;
}

// conf / (conf, lo, hi) tables keyed by value vector.
std::map<std::string, double> ConfMap(const Relation& table) {
  std::map<std::string, double> out;
  for (const auto& row : table.rows()) {
    out[Key(row, row.size() - 1)] = row.back().as_double();
  }
  return out;
}
struct IntervalRow {
  double conf, lo, hi;
};
std::map<std::string, IntervalRow> IntervalMap(const Relation& table) {
  std::map<std::string, IntervalRow> out;
  for (const auto& row : table.rows()) {
    size_t n = row.size();
    out[Key(row, n - 3)] = {row[n - 3].as_double(), row[n - 2].as_double(),
                            row[n - 1].as_double()};
  }
  return out;
}

TEST(ApproxConfTest, ValidatesEpsilonDelta) {
  WsdDb db = MedicalExample();
  ApproxOptions bad;
  bad.epsilon = 0.0;
  EXPECT_FALSE(ApproxConfTable(db, "R", bad).ok());
  bad.epsilon = 1.5;
  EXPECT_FALSE(ApproxConfTable(db, "R", bad).ok());
  bad.epsilon = 0.01;
  bad.delta = 0.0;
  EXPECT_FALSE(ApproxConfTable(db, "R", bad).ok());
  bad.delta = 1.0;
  EXPECT_FALSE(ApproxConfTable(db, "R", bad).ok());
}

TEST(ApproxConfTest, ExactOnSmallClusters) {
  // Every cluster of the medical example fits the exact-state limit, so
  // the approximate table degenerates to the exact one with collapsed
  // intervals.
  WsdDb db = MedicalExample();
  auto exact = ConfTable(db, "R");
  ASSERT_TRUE(exact.ok());
  ApproxConfStats stats;
  auto approx = ApproxConfTable(db, "R", ApproxOptions{}, &stats);
  ASSERT_TRUE(approx.ok());
  auto em = ConfMap(*exact);
  auto am = IntervalMap(*approx);
  ASSERT_EQ(em.size(), am.size());
  for (const auto& [key, p] : em) {
    ASSERT_TRUE(am.count(key)) << key;
    EXPECT_DOUBLE_EQ(am[key].conf, p);
    EXPECT_DOUBLE_EQ(am[key].lo, p);
    EXPECT_DOUBLE_EQ(am[key].hi, p);
  }
  EXPECT_EQ(stats.exact_clusters, stats.clusters);
  EXPECT_EQ(stats.total_samples, 0u);
  EXPECT_EQ(stats.max_half_width, 0.0);
}

TEST(ApproxConfTest, MemberMarginalsFastPathIsExact) {
  // Each tuple of the shared group references one slot of the merged
  // component and no two tuples can produce the same vector, so the
  // member-marginal fast path resolves the 2^16-state cluster exactly —
  // no enumeration, no sampling, collapsed intervals.
  WsdDb db = SharedGroup(16, 32);
  auto exact = ConfTable(db, "r");  // factorized exact path
  ASSERT_TRUE(exact.ok());
  ApproxConfStats stats;
  auto approx = ApproxConfTable(db, "r", ApproxOptions{}, &stats);
  ASSERT_TRUE(approx.ok());
  EXPECT_EQ(stats.exact_clusters, stats.clusters);
  EXPECT_EQ(stats.total_samples, 0u);
  EXPECT_EQ(stats.total_states, 0u);
  EXPECT_EQ(stats.max_half_width, 0.0);
  auto em = ConfMap(*exact);
  auto am = IntervalMap(*approx);
  ASSERT_EQ(em.size(), am.size());
  for (const auto& [key, p] : em) {
    ASSERT_TRUE(am.count(key)) << key;
    EXPECT_NEAR(am[key].conf, p, 1e-9) << key;
    EXPECT_NEAR(am[key].lo, am[key].hi, 1e-15) << key;
  }
}

TEST(ApproxConfTest, CollidingMembersFallBackToAnytime) {
  // Two identical tuples reference the same slot, so the same vector is
  // producible by two members: the fast path must refuse (the marginal
  // sum would double-count) and the anytime machinery must still return
  // a sound interval.
  WsdDb db = SharedGroup(13, 26);
  WsdRelation* rel = db.GetMutableRelation("r").value();
  ComponentId merged = rel->tuple(0).cells[1].ref().cid;
  for (int copy = 0; copy < 2; ++copy) {
    WsdTuple t;
    t.cells.push_back(Cell::Certain(Value::Int(999)));
    t.cells.push_back(Cell::Ref({merged, 0}));
    rel->Add(std::move(t));
  }
  auto exact = ConfTable(db, "r");
  ASSERT_TRUE(exact.ok());
  ApproxOptions opt;
  opt.epsilon = 0.02;
  ApproxConfStats stats;
  auto approx = ApproxConfTable(db, "r", opt, &stats);
  ASSERT_TRUE(approx.ok());
  EXPECT_GT(stats.total_samples + stats.total_states, 0u)
      << "collision did not fall back to the anytime path";
  auto em = ConfMap(*exact);
  auto am = IntervalMap(*approx);
  for (const auto& [key, p] : em) {
    if (p <= 0.0) continue;
    ASSERT_TRUE(am.count(key)) << key;
    EXPECT_LE(am[key].lo, p + 1e-9) << key;
    EXPECT_GE(am[key].hi, p - 1e-9) << key;
  }
}

TEST(ApproxConfTest, IntervalContainsExactOnSharedGroup) {
  // 2^14 joint states blow the exact-state limit, forcing the anytime
  // path (fast path disabled); the reported interval must contain the
  // exact confidence and honor the requested half-width (fixed seed: no
  // flakes).
  WsdDb db = SharedGroup(14, 28);
  auto exact = ConfTable(db, "r");  // factorized exact path
  ASSERT_TRUE(exact.ok());
  ApproxOptions opt;
  opt.member_marginals = false;
  opt.epsilon = 0.01;
  opt.delta = 0.05;
  ApproxConfStats stats;
  auto approx = ApproxConfTable(db, "r", opt, &stats);
  ASSERT_TRUE(approx.ok());
  auto em = ConfMap(*exact);
  auto am = IntervalMap(*approx);
  for (const auto& [key, p] : em) {
    if (p <= 0.0) continue;  // zero-mass vectors may be absent
    ASSERT_TRUE(am.count(key)) << key;
    const IntervalRow& iv = am[key];
    EXPECT_LE(iv.lo, p + 1e-9) << key;
    EXPECT_GE(iv.hi, p - 1e-9) << key;
    EXPECT_LE(iv.lo, iv.conf);
    EXPECT_GE(iv.hi, iv.conf);
    EXPECT_NEAR(iv.conf, p, opt.epsilon + 1e-9) << key;
  }
  EXPECT_LE(stats.max_half_width, opt.epsilon + 1e-12);
  EXPECT_GT(stats.total_samples + stats.total_states, 0u);
}

TEST(ApproxConfTest, EnumeratedMassRoundingAboveOneKeepsIntervalsOrdered) {
  // One or-set whose four alternatives all hold the same value: the
  // tuple is certain, but its enumerated mass sums left to right as
  // ((0.2 + 0.4) + 0.3) + 0.1 = 1.0000000000000002. Four states exceed
  // the exact-state limit, so the anytime path enumerates them in one
  // round and brackets the tuple with the rounded mass; the interval
  // must still satisfy lo <= conf <= hi <= 1.
  ASSERT_GT(((0.2 + 0.4) + 0.3) + 0.1, 1.0);
  WsdDb db;
  MAYBMS_ASSERT_OK(
      db.CreateRelation("r", Schema({{"v", ValueType::kString}})));
  const Value x = Value::String("x");
  MAYBMS_ASSERT_OK(
      InsertTuple(&db, "r",
                  {CellSpec::OrSet({{x, 0.2}, {x, 0.4}, {x, 0.3}, {x, 0.1}})})
          .status());
  ApproxOptions opt;
  opt.member_marginals = false;
  opt.exact_state_limit = 2;
  opt.enum_chunk = 4;
  auto approx = ApproxConfTable(db, "r", opt, nullptr);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  auto am = IntervalMap(*approx);
  ASSERT_EQ(am.size(), 1u);
  const IntervalRow& iv = am.begin()->second;
  EXPECT_LE(iv.lo, iv.conf);
  EXPECT_LE(iv.conf, iv.hi);
  EXPECT_LE(iv.hi, 1.0);
  EXPECT_NEAR(iv.conf, 1.0, 1e-12);
}

TEST(ApproxConfTest, BracketSoundnessAtEveryStep) {
  // Property test of the deterministic bounds: at every prefix of the
  // odometer scan, every vector's exact in-cluster mass lies inside
  // [visited mass(v), visited mass(v) + unvisited mass].
  Rng rng(2024);
  for (int iter = 0; iter < 25; ++iter) {
    RandomWsdOptions opt;
    opt.max_tuples = 6;
    WsdDb db = RandomWsd(&rng, opt);
    const WsdRelation* rel = db.GetRelation("R0").value();
    ClusterIndex index(db, *rel);
    for (const Cluster& cluster : index.clusters()) {
      // Reference: scan to completion.
      ClusterMassScan full(index, cluster);
      if (!full.Run(size_t{1} << 16)) continue;  // cap pathological sizes
      // Re-scan in steps of 3 states, checking the bracket invariant
      // after every step.
      ClusterMassScan part(index, cluster);
      while (!part.done()) {
        part.Run(3);
        const double slack = 1e-9;
        const double unvisited = part.unvisited_mass();
        for (const auto& [v, p] : full.mass()) {
          auto it = part.mass().find(v);
          const double seen = it == part.mass().end() ? 0.0 : it->second;
          EXPECT_LE(seen, p + slack);
          EXPECT_GE(seen + unvisited, p - slack);
        }
        EXPECT_LE(part.visited_mass(), part.total_mass() + 1e-9);
      }
      // Exhausted scan reproduces the reference masses exactly.
      ASSERT_EQ(part.mass().size(), full.mass().size());
      for (const auto& [v, p] : full.mass()) {
        EXPECT_NEAR(part.mass().at(v), p, 1e-12);
      }
    }
  }
}

TEST(ApproxConfTest, SamplingEstimatorIsUnbiased) {
  // Two independent binary clusters produce the same vector, so
  // conf(v) = 1 − (1 − p)(1 − p) exercises the cross-cluster product
  // combine. In sampling-only mode the estimator is the raw per-cluster
  // frequency, whose product combine is exactly unbiased; the mean over
  // many fixed seeds must approach the exact confidence within the
  // predicted standard error (fixed seeds: fully deterministic).
  WsdDb db;
  ASSERT_TRUE(db.CreateRelation(
                    "r", Schema({{"a", ValueType::kInt},
                                 {"b", ValueType::kInt}}))
                  .ok());
  for (int t = 0; t < 2; ++t) {
    auto h = InsertTuple(&db, "r",
                         {CellSpec::Certain(Value::Int(1)),
                          CellSpec::OrSet({{Value::Int(7), 0.6},
                                           {Value::Int(8), 0.4}})});
    ASSERT_TRUE(h.ok());
  }
  auto exact = ConfTable(db, "r");
  ASSERT_TRUE(exact.ok());
  auto em = ConfMap(*exact);
  const std::string key = "1|7|";
  ASSERT_TRUE(em.count(key));
  const double truth = em[key];  // 1 − 0.4² = 0.84

  ApproxOptions opt;
  opt.sampling_only = true;
  opt.fixed_samples = 400;
  opt.exact_state_limit = 1;  // force sampling of both clusters
  const int runs = 200;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < runs; ++i) {
    opt.seed = 1000 + static_cast<uint64_t>(i);
    auto approx = ApproxConfTable(db, "r", opt);
    ASSERT_TRUE(approx.ok());
    auto am = IntervalMap(*approx);
    ASSERT_TRUE(am.count(key));
    sum += am[key].conf;
    sum_sq += am[key].conf * am[key].conf;
  }
  const double mean = sum / runs;
  const double var = sum_sq / runs - mean * mean;
  // Flake-free tolerance: 4 standard errors of the run mean (and never
  // tighter than a small floor against var underestimation).
  const double se = std::sqrt(std::max(var, 1e-12) / runs);
  EXPECT_NEAR(mean, truth, std::max(4.0 * se, 1e-3));
}

TEST(ApproxConfTest, DeterministicAcrossThreadCounts) {
  WsdDb db = SharedGroup(13, 26);
  ApproxOptions t1;
  t1.member_marginals = false;  // exercise the sampler, not the fast path
  t1.num_threads = 1;
  ApproxOptions t4 = t1;
  t4.num_threads = 4;
  auto r1 = ApproxConfTable(db, "r", t1);
  auto r4 = ApproxConfTable(db, "r", t4);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  ASSERT_EQ(r1->NumRows(), r4->NumRows());
  for (size_t i = 0; i < r1->NumRows(); ++i) {
    const Tuple& a = r1->rows()[i];
    const Tuple& b = r4->rows()[i];
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
      EXPECT_TRUE(a[c] == b[c])
          << "row " << i << " col " << c << ": " << a[c].ToString()
          << " vs " << b[c].ToString();
    }
  }

  // Random world-sets, same contract.
  Rng rng(77);
  for (int iter = 0; iter < 5; ++iter) {
    WsdDb rdb = RandomWsd(&rng);
    ApproxOptions o1;
    o1.member_marginals = false;
    o1.num_threads = 1;
    o1.exact_state_limit = 2;  // push clusters onto the anytime path
    o1.sample_chunk = 512;
    ApproxOptions o4 = o1;
    o4.num_threads = 4;
    auto a = ApproxConfTable(rdb, "R0", o1);
    auto b = ApproxConfTable(rdb, "R0", o4);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->NumRows(), b->NumRows());
    for (size_t i = 0; i < a->NumRows(); ++i) {
      for (size_t c = 0; c < a->rows()[i].size(); ++c) {
        EXPECT_TRUE(a->rows()[i][c] == b->rows()[i][c]);
      }
    }
  }
}

TEST(ApproxConfTest, PathTelemetry) {
  WsdDb db = SharedGroup(13, 26);
  // Enumeration disabled: the single big cluster must resolve by
  // sampling.
  ApproxOptions opt;
  opt.member_marginals = false;
  opt.max_enum_states = 0;
  ApproxConfStats stats;
  ASSERT_TRUE(ApproxConfTable(db, "r", opt, &stats).ok());
  EXPECT_EQ(stats.clusters, 1u);
  EXPECT_EQ(stats.sampled_clusters, 1u);
  EXPECT_EQ(stats.total_states, 0u);
  EXPECT_GT(stats.total_samples, 0u);

  // Sampling disabled (tiny per-cluster budget relative to ε): the
  // bracket path must carry it.
  ApproxOptions brk;
  brk.member_marginals = false;
  brk.max_samples = 0;
  brk.epsilon = 0.4;
  ApproxConfStats bstats;
  ASSERT_TRUE(ApproxConfTable(db, "r", brk, &bstats).ok());
  EXPECT_EQ(bstats.total_samples, 0u);
  EXPECT_GT(bstats.total_states, 0u);
  EXPECT_EQ(bstats.sampled_clusters, 0u);
}

TEST(ApproxConfTest, RescuesExactBudgetFailure) {
  // The budget-rescue regime: naive exact enumeration blows a
  // 4096-state budget, the approximate engine answers within ε without
  // factorization.
  WsdDb db = SharedGroup(16, 32);
  ConfidenceOptions naive;
  naive.factorize_clusters = false;
  naive.max_cluster_states = 4096;
  EXPECT_FALSE(ConfTable(db, "r", naive).ok());

  auto exact = ConfTable(db, "r");  // factorized: feasible oracle
  ASSERT_TRUE(exact.ok());
  ApproxOptions opt;
  opt.epsilon = 0.01;
  ApproxConfStats stats;
  auto approx = ApproxConfTable(db, "r", opt, &stats);
  ASSERT_TRUE(approx.ok());
  auto em = ConfMap(*exact);
  auto am = IntervalMap(*approx);
  for (const auto& [key, p] : em) {
    if (p <= 0.0) continue;
    ASSERT_TRUE(am.count(key)) << key;
    EXPECT_LE(am[key].lo, p + 1e-9);
    EXPECT_GE(am[key].hi, p - 1e-9);
  }
  EXPECT_LE(stats.max_half_width, opt.epsilon + 1e-12);
}

}  // namespace
}  // namespace maybms
