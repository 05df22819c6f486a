// Tests for world sampling, approximate confidence and the most probable
// world.
#include <gtest/gtest.h>

#include <map>

#include "core/confidence.h"
#include "tests/test_util.h"
#include "worlds/enumerate.h"
#include "worlds/sample.h"

namespace maybms {
namespace {

using testing_util::MedicalExample;

TEST(SampleTest, SampledWorldsAreValidWorlds) {
  WsdDb db = MedicalExample();
  auto worlds = EnumerateWorlds(db);
  ASSERT_TRUE(worlds.ok());
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    Catalog sampled = SampleWorld(db, &rng);
    bool found = false;
    for (const auto& w : *worlds) {
      if (w.catalog.Equals(sampled)) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "sampled a database that is not a world";
  }
}

TEST(SampleTest, FrequenciesApproachProbabilities) {
  WsdDb db = MedicalExample();
  Rng rng(7);
  // Track frequency of the pregnancy/ultrasound world (p = 0.4 overall
  // for the r1 diagnosis alternative).
  size_t n = 20000, hits = 0;
  Status st = SampleWorlds(db, n, &rng, [&](const Catalog& w) {
    const Relation& r = *w.Get("R").value();
    for (const auto& row : r.rows()) {
      if (row[0] == Value::String("pregnancy")) ++hits;
    }
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_NEAR(static_cast<double>(hits) / static_cast<double>(n), 0.4, 0.02);
}

TEST(SampleTest, ApproximateConfCloseToExact) {
  WsdDb db = MedicalExample();
  auto exact = ConfTable(db, "R");
  ASSERT_TRUE(exact.ok());
  SampleConfOptions opts;
  opts.samples = 20000;
  opts.seed = 11;
  auto approx = EstimateConfidenceBySampling(db, "R", opts);
  ASSERT_TRUE(approx.ok());
  // Compare per vector.
  std::map<std::string, double> exact_map, approx_map;
  for (const auto& row : exact->rows()) {
    std::string key;
    for (size_t c = 0; c + 1 < row.size(); ++c) key += row[c].ToString() + "|";
    exact_map[key] = row.back().as_double();
  }
  for (const auto& row : approx->rows()) {
    std::string key;
    for (size_t c = 0; c + 1 < row.size(); ++c) key += row[c].ToString() + "|";
    approx_map[key] = row.back().as_double();
  }
  for (const auto& [key, p] : exact_map) {
    ASSERT_TRUE(approx_map.count(key)) << key;
    EXPECT_NEAR(approx_map[key], p, 0.02) << key;
  }
}

// The streaming per-cluster sampler and the kept per-world oracle are
// independent estimators of the same confidences: both must land within
// sampling tolerance of the exact answer on the paper's running example.
TEST(SampleTest, StreamingSamplerAgreesWithWorldOracle) {
  WsdDb db = MedicalExample();
  auto exact = ConfTable(db, "R");
  ASSERT_TRUE(exact.ok());
  SampleConfOptions opts;
  opts.samples = 20000;
  opts.seed = 11;
  opts.exact_state_limit = 1;  // force the sampling path on every cluster
  auto streaming = EstimateConfidenceBySampling(db, "R", opts);
  ASSERT_TRUE(streaming.ok());
  auto oracle = ApproximateConfTableByWorlds(db, "R", 20000, /*seed=*/11);
  ASSERT_TRUE(oracle.ok());
  auto to_map = [](const Relation& r) {
    std::map<std::string, double> m;
    for (const auto& row : r.rows()) {
      std::string key;
      for (size_t c = 0; c + 1 < row.size(); ++c) {
        key += row[c].ToString() + "|";
      }
      m[key] = row.back().as_double();
    }
    return m;
  };
  auto exact_map = to_map(*exact);
  auto streaming_map = to_map(*streaming);
  auto oracle_map = to_map(*oracle);
  for (const auto& [key, p] : exact_map) {
    ASSERT_TRUE(streaming_map.count(key)) << "streaming missing " << key;
    ASSERT_TRUE(oracle_map.count(key)) << "oracle missing " << key;
    EXPECT_NEAR(streaming_map[key], p, 0.02) << key;
    EXPECT_NEAR(oracle_map[key], p, 0.02) << key;
  }
}

// Fixed seed → bit-identical confidences regardless of thread count.
TEST(SampleTest, StreamingSamplerDeterministicAcrossThreads) {
  Rng rng(23);
  testing_util::RandomWsdOptions opt;
  opt.p_uncertain_cell = 0.5;
  opt.max_tuples = 8;
  WsdDb db = testing_util::RandomWsd(&rng, opt);
  const std::string rel = db.RelationNames().front();
  SampleConfOptions o1;
  o1.samples = 5000;
  o1.seed = 99;
  o1.exact_state_limit = 1;
  o1.num_threads = 1;
  SampleConfOptions o4 = o1;
  o4.num_threads = 4;
  auto r1 = EstimateConfidenceBySampling(db, rel, o1);
  auto r4 = EstimateConfidenceBySampling(db, rel, o4);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r4.ok()) << r4.status().ToString();
  ASSERT_EQ(r1->rows().size(), r4->rows().size());
  for (size_t i = 0; i < r1->rows().size(); ++i) {
    const Tuple& a = r1->rows()[i];
    const Tuple& b = r4->rows()[i];
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(a[c], b[c]) << "row " << i << " col " << c;
    }
  }
}

TEST(SampleTest, ApproximateConfValidatesInput) {
  WsdDb db = MedicalExample();
  SampleConfOptions none;
  none.samples = 0;
  EXPECT_EQ(EstimateConfidenceBySampling(db, "R", none).status().code(),
            StatusCode::kInvalidArgument);
  SampleConfOptions ten;
  ten.samples = 10;
  EXPECT_EQ(EstimateConfidenceBySampling(db, "nope", ten).status().code(),
            StatusCode::kNotFound);
}

TEST(SampleTest, MostProbableWorld) {
  WsdDb db = MedicalExample();
  auto map = MostProbableWorld(db);
  ASSERT_TRUE(map.ok());
  // Components: (hypothyroidism 0.6) x (weight gain 0.7) = 0.42.
  EXPECT_NEAR(map->prob, 0.42, 1e-12);
  const Relation& r = *map->catalog.Get("R").value();
  bool has_hypo = false;
  for (const auto& row : r.rows()) {
    if (row[0] == Value::String("hypothyroidism")) {
      has_hypo = true;
      EXPECT_EQ(row[2], Value::String("weight gain"));
    }
  }
  EXPECT_TRUE(has_hypo);
}

TEST(SampleTest, MostProbableWorldIsAmongEnumerated) {
  Rng rng(17);
  testing_util::RandomWsdOptions opt;
  opt.p_uncertain_cell = 0.5;
  WsdDb db = testing_util::RandomWsd(&rng, opt);
  auto map = MostProbableWorld(db);
  ASSERT_TRUE(map.ok());
  auto worlds = EnumerateWorlds(db, 1u << 16);
  ASSERT_TRUE(worlds.ok());
  double best = 0;
  for (const auto& w : *worlds) best = std::max(best, w.prob);
  // The MAP world's probability equals the max choice-combination prob.
  EXPECT_NEAR(map->prob, best, 1e-12);
}

TEST(ForEachWorldTest, StreamsEveryWorldOnce) {
  WsdDb db = MedicalExample();
  size_t count = 0;
  double mass = 0;
  Status st = ForEachWorld(db, 1 << 10, [&](const Catalog& w, double p) {
    (void)w;
    ++count;
    mass += p;
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(count, 4u);
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(ForEachWorldTest, CallbackErrorStopsEnumeration) {
  WsdDb db = MedicalExample();
  size_t count = 0;
  Status st = ForEachWorld(db, 1 << 10, [&](const Catalog&, double) {
    if (++count == 2) return Status::Internal("stop");
    return Status::OK();
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(count, 2u);
}

}  // namespace
}  // namespace maybms
