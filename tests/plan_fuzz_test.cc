// Differential plan-equivalence fuzzing: random type-correct queries
// (gen/workload's RandomQueryPlan) over random small world-set databases
// must produce the SAME answer three ways —
//
//   1. the unoptimized plan, evaluated lifted over the WSD,
//   2. the cost-based-optimized plan (random rule subsets, so every rule
//      combination including the off switch is exercised), lifted,
//   3. the per-world enumeration oracle: the conventional executor run
//      in every possible world.
//
// Agreement is checked on the full distribution over answer bags (which
// covers row multiplicities world by world) and on per-tuple confidence
// values (ConfTable vs the oracle's marginals).
//
// The default iteration count keeps CI bounded; MAYBMS_PLAN_FUZZ_ITERS
// raises it for long runs (the "fuzz"-labeled ctest entry does this).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>

#include "core/approx_conf.h"
#include "core/confidence.h"
#include "core/lifted_executor.h"
#include "gen/workload.h"
#include "ra/executor.h"
#include "sql/optimizer.h"
#include "tests/test_util.h"
#include "worlds/enumerate.h"

namespace maybms {
namespace {

// Every lifted operator in this suite cross-checks its scoped
// normalization against a full Normalize of a copy.
const testing_util::ScopedNormalizeCrossCheck kNormalizeCrossCheck;

using testing_util::CanonicalBag;
using testing_util::ExpectDistEq;
using testing_util::RandomWsd;
using testing_util::RandomWsdOptions;

size_t FuzzIterations() {
  const char* env = std::getenv("MAYBMS_PLAN_FUZZ_ITERS");
  if (env != nullptr) {
    size_t n = std::strtoul(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 600;  // bounded CI default (acceptance floor is 500)
}

std::string RowKey(const Tuple& row) {
  std::string out;
  for (size_t c = 0; c < row.size(); ++c) {
    if (c) out += ",";
    out += row[c].ToString();
  }
  return out;
}

// The oracle's view of one query: distribution over canonical answer
// bags plus the marginal P(vector appears) per distinct value vector.
struct OracleResult {
  std::map<std::string, double> dist;
  std::map<std::string, double> marginals;
};

OracleResult Oracle(const std::vector<World>& worlds, const PlanPtr& plan,
                    bool* failed) {
  OracleResult out;
  for (const auto& w : worlds) {
    auto answer = Execute(plan, w.catalog);
    if (!answer.ok()) {
      ADD_FAILURE() << "oracle execution failed: "
                    << answer.status().ToString();
      *failed = true;
      return out;
    }
    out.dist[CanonicalBag(*answer)] += w.prob;
    std::map<std::string, bool> present;
    for (const auto& row : answer->rows()) present[RowKey(row)] = true;
    for (const auto& [key, _] : present) out.marginals[key] += w.prob;
  }
  return out;
}

// Lifted evaluation → (distribution, ConfTable marginals); nullopt-style
// skip (returns false) when world enumeration of the answer exceeds the
// budget.
bool LiftedView(const WsdDb& db, const PlanPtr& plan,
                std::map<std::string, double>* dist,
                std::map<std::string, double>* marginals, bool* failed) {
  auto result = ExecuteLifted(plan, db);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kResourceExhausted) {
      return false;
    }
    ADD_FAILURE() << "lifted execution failed: "
                  << result.status().ToString();
    *failed = true;
    return false;
  }
  Status inv = result->CheckInvariants();
  if (!inv.ok()) {
    ADD_FAILURE() << "invariant violation: " << inv.ToString();
    *failed = true;
    return false;
  }
  auto worlds = EnumerateWorlds(*result, 1u << 18);
  if (!worlds.ok()) return false;  // answer too wide to enumerate — skip
  for (const auto& w : *worlds) {
    auto rel = w.catalog.Get("result");
    if (!rel.ok()) {
      ADD_FAILURE() << rel.status().ToString();
      *failed = true;
      return false;
    }
    (*dist)[CanonicalBag(**rel)] += w.prob;
  }
  ConfidenceOptions copts;
  auto conf = ConfTable(*result, "result", copts);
  if (!conf.ok()) {
    ADD_FAILURE() << "ConfTable failed: " << conf.status().ToString();
    *failed = true;
    return false;
  }
  for (const auto& row : conf->rows()) {
    Tuple vals(row.begin(), row.end() - 1);  // trailing conf column
    double p = row.back().is_double() ? row.back().as_double() : 0.0;
    if (p > 1e-9) (*marginals)[RowKey(vals)] += p;
  }
  return true;
}

void ExpectMarginalsEq(const std::map<std::string, double>& expected,
                       const std::map<std::string, double>& actual,
                       const char* label) {
  constexpr double kEps = 1e-6;
  for (const auto& [key, p] : expected) {
    if (p <= kEps) continue;
    auto it = actual.find(key);
    ASSERT_TRUE(it != actual.end())
        << label << ": missing tuple [" << key << "] with conf " << p;
    EXPECT_NEAR(p, it->second, kEps) << label << ": tuple [" << key << "]";
  }
  for (const auto& [key, p] : actual) {
    EXPECT_TRUE(expected.count(key) > 0 || p < kEps)
        << label << ": unexpected tuple [" << key << "] conf " << p;
  }
}

sql::OptimizerOptions RandomOptimizerOptions(Rng* rng) {
  sql::OptimizerOptions opts;
  // Defaults half the time (the production configuration), random rule
  // subsets otherwise — including enable=false, which must be a no-op.
  if (rng->NextBernoulli(0.5)) return opts;
  opts.enable = rng->NextBernoulli(0.9);
  opts.fold_constants = rng->NextBernoulli(0.5);
  opts.push_predicates = rng->NextBernoulli(0.7);
  opts.reorder_joins = rng->NextBernoulli(0.7);
  opts.prune_projections = rng->NextBernoulli(0.7);
  return opts;
}

TEST(PlanFuzz, ThreeWayAgreement) {
  const size_t iters = FuzzIterations();
  constexpr size_t kQueriesPerDb = 8;
  size_t executed = 0, skipped = 0;
  uint64_t db_seed = 0;
  while (executed + skipped < iters) {
    ++db_seed;
    Rng rng(db_seed * 2654435761u + 17);
    RandomWsdOptions wopt;
    wopt.num_relations = 1 + rng.NextBelow(2);
    wopt.min_tuples = 1;
    wopt.max_tuples = 3;
    wopt.min_cols = 2;
    wopt.max_cols = 3;
    wopt.p_uncertain_cell = 0.3;
    wopt.p_joint = 0.25;
    WsdDb db = RandomWsd(&rng, wopt);
    Status inv = db.CheckInvariants();
    ASSERT_TRUE(inv.ok()) << inv.ToString();

    auto worlds = EnumerateWorlds(db, 1u << 16);
    if (!worlds.ok()) {  // unlucky seed: too many worlds — skip this db
      skipped += kQueriesPerDb;
      continue;
    }

    std::vector<GenTable> tables;
    for (const auto& name : db.RelationNames()) {
      tables.push_back({name, db.GetRelation(name).value()->schema()});
    }

    for (size_t q = 0; q < kQueriesPerDb && executed + skipped < iters; ++q) {
      PlanPtr plan = RandomQueryPlan(&rng, tables);
      SCOPED_TRACE("db_seed=" + std::to_string(db_seed) + " query=" +
                   std::to_string(q) + "\n" + plan->ToString());

      bool failed = false;
      OracleResult oracle = Oracle(*worlds, plan, &failed);
      ASSERT_FALSE(failed);

      std::map<std::string, double> raw_dist, raw_marg;
      if (!LiftedView(db, plan, &raw_dist, &raw_marg, &failed)) {
        ASSERT_FALSE(failed);
        ++skipped;
        continue;
      }

      auto optimized = sql::Optimize(plan, db, RandomOptimizerOptions(&rng));
      ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
      SCOPED_TRACE("optimized:\n" + (*optimized)->ToString());
      std::map<std::string, double> opt_dist, opt_marg;
      if (!LiftedView(db, *optimized, &opt_dist, &opt_marg, &failed)) {
        ASSERT_FALSE(failed);
        ++skipped;
        continue;
      }

      // Distributions over answer bags (covers row multiplicities).
      ExpectDistEq(oracle.dist, raw_dist);
      ExpectDistEq(oracle.dist, opt_dist);
      // Per-tuple confidences.
      ExpectMarginalsEq(oracle.marginals, raw_marg, "unoptimized conf");
      ExpectMarginalsEq(oracle.marginals, opt_marg, "optimized conf");
      if (::testing::Test::HasFailure()) {
        FAIL() << "three-way mismatch (see traces above)";
      }
      ++executed;
    }
  }
  // Skips (enumeration budget) must stay the rare exception.
  EXPECT_GE(executed * 10, iters * 8)
      << executed << " executed vs " << skipped << " skipped";
  SUCCEED() << executed << " queries fuzzed, " << skipped << " skipped";
}

size_t ApproxFuzzIterations() {
  const char* env = std::getenv("MAYBMS_APPROX_FUZZ_ITERS");
  if (env != nullptr) {
    size_t n = std::strtoul(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 300;  // bounded CI default
}

struct ApproxRow {
  double conf = 0, lo = 0, hi = 0;
};

// APPROX CONF's view of a lifted answer: value vector → (estimate,
// interval), read off the trailing conf/conf_lo/conf_hi columns.
bool ApproxView(const WsdDb& db, const ApproxOptions& opts,
                std::map<std::string, ApproxRow>* out, bool* failed) {
  auto table = ApproxConfTable(db, "result", opts);
  if (!table.ok()) {
    if (table.status().code() == StatusCode::kResourceExhausted) return false;
    ADD_FAILURE() << "ApproxConfTable failed: " << table.status().ToString();
    *failed = true;
    return false;
  }
  for (const auto& row : table->rows()) {
    if (row.size() < 3) {
      ADD_FAILURE() << "approx table too narrow: " << row.size() << " cols";
      *failed = true;
      return false;
    }
    Tuple vals(row.begin(), row.end() - 3);
    ApproxRow a;
    a.conf = row[row.size() - 3].as_double();
    a.lo = row[row.size() - 2].as_double();
    a.hi = row[row.size() - 1].as_double();
    (*out)[RowKey(vals)] = a;
  }
  return true;
}

// Differential APPROX CONF vs exact CONF over the same random-plan
// corpus: for every lifted answer the exact per-vector confidence must
// lie inside the reported [conf_lo, conf_hi] interval, and any vector
// the approx pass did not surface must have exact confidence below the
// engine's unseen bound (≤ 2ε after the per-cluster ε/K split). Three
// configurations are exercised: production defaults (exact path
// dominates on these tiny clusters), a forced anytime path
// (exact_state_limit=2, so bracket + sampling carry the answer), and a
// pure-sampling path (enumeration disabled, Hoeffding CI only).
TEST(PlanFuzz, ApproxConfIntervalsCoverExact) {
  const size_t iters = ApproxFuzzIterations();
  constexpr size_t kQueriesPerDb = 8;
  constexpr double kSlack = 1e-9;
  size_t executed = 0, skipped = 0;
  uint64_t db_seed = 1u << 20;  // disjoint seed stream from ThreeWayAgreement
  while (executed + skipped < iters) {
    ++db_seed;
    Rng rng(db_seed * 2654435761u + 29);
    RandomWsdOptions wopt;
    wopt.num_relations = 1 + rng.NextBelow(2);
    wopt.min_tuples = 1;
    wopt.max_tuples = 3;
    wopt.min_cols = 2;
    wopt.max_cols = 3;
    wopt.p_uncertain_cell = 0.3;
    wopt.p_joint = 0.25;
    WsdDb db = RandomWsd(&rng, wopt);
    Status inv = db.CheckInvariants();
    ASSERT_TRUE(inv.ok()) << inv.ToString();

    std::vector<GenTable> tables;
    for (const auto& name : db.RelationNames()) {
      tables.push_back({name, db.GetRelation(name).value()->schema()});
    }

    for (size_t q = 0; q < kQueriesPerDb && executed + skipped < iters; ++q) {
      PlanPtr plan = RandomQueryPlan(&rng, tables);
      SCOPED_TRACE("db_seed=" + std::to_string(db_seed) + " query=" +
                   std::to_string(q) + "\n" + plan->ToString());

      auto result = ExecuteLifted(plan, db);
      if (!result.ok()) {
        ASSERT_EQ(result.status().code(), StatusCode::kResourceExhausted)
            << result.status().ToString();
        ++skipped;
        continue;
      }
      auto exact = ConfTable(*result, "result");
      if (!exact.ok()) {
        ASSERT_EQ(exact.status().code(), StatusCode::kResourceExhausted)
            << exact.status().ToString();
        ++skipped;
        continue;
      }
      std::map<std::string, double> exact_marg;
      for (const auto& row : exact->rows()) {
        Tuple vals(row.begin(), row.end() - 1);
        exact_marg[RowKey(vals)] = row.back().as_double();
      }

      ApproxOptions defaults;
      ApproxOptions forced;
      forced.member_marginals = false;
      forced.epsilon = 0.05;
      forced.delta = 0.01;
      forced.exact_state_limit = 2;
      forced.enum_chunk = 4;
      forced.sample_chunk = 512;
      ApproxOptions pure;
      pure.member_marginals = false;
      pure.epsilon = 0.05;
      pure.delta = 0.01;
      pure.exact_state_limit = 2;
      pure.max_enum_states = 0;
      pure.sample_chunk = 1024;
      struct NamedConfig {
        const char* label;
        ApproxOptions opts;
      };
      NamedConfig configs[] = {
          {"defaults", defaults}, {"forced-anytime", forced},
          {"pure-sampling", pure}};
      for (auto& cfg : configs) {
        cfg.opts.seed = db_seed * 977 + q;
        SCOPED_TRACE(cfg.label);
        bool failed = false;
        std::map<std::string, ApproxRow> approx;
        if (!ApproxView(*result, cfg.opts, &approx, &failed)) {
          ASSERT_FALSE(failed);
          continue;  // budget skip: other configs still checked
        }
        for (const auto& [key, p] : exact_marg) {
          auto it = approx.find(key);
          if (it == approx.end()) {
            // Unreported vectors are covered by the unseen bound.
            EXPECT_LE(p, 2 * cfg.opts.epsilon + 1e-6)
                << "missing tuple [" << key << "] with exact conf " << p;
            continue;
          }
          EXPECT_LE(it->second.lo, p + kSlack)
              << "tuple [" << key << "]: exact below interval";
          EXPECT_GE(it->second.hi, p - kSlack)
              << "tuple [" << key << "]: exact above interval";
          EXPECT_LE(it->second.lo, it->second.conf + kSlack)
              << "tuple [" << key << "]: estimate below its own interval";
          EXPECT_GE(it->second.hi, it->second.conf - kSlack)
              << "tuple [" << key << "]: estimate above its own interval";
        }
        for (const auto& [key, a] : approx) {
          if (exact_marg.count(key) == 0) {
            // Phantom vectors must admit confidence zero.
            EXPECT_LE(a.lo, kSlack)
                << "tuple [" << key << "] reported with lower bound " << a.lo
                << " but exact confidence 0";
          }
        }
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "approx/exact mismatch (see traces above)";
      }
      ++executed;
    }
  }
  EXPECT_GE(executed * 10, iters * 8)
      << executed << " executed vs " << skipped << " skipped";
  SUCCEED() << executed << " queries fuzzed, " << skipped << " skipped";
}

}  // namespace
}  // namespace maybms
