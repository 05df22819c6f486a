// Differential fuzzer for incremental confidence maintenance: random
// DeltaBatch sequences interleaved with confidence queries, asserting
// after every batch that
//
//   - the incremental path (session's MaterializedConf cache, which
//     only re-scans delta-dirtied clusters) is BIT-IDENTICAL to a
//     scratch recompute with no cache — for CONF, APPROX CONF (exact
//     phase), ECOUNT and ESUM;
//   - serialize → deserialize → apply reproduces the exact same
//     database state as applying the original batch (the WAL-replay
//     contract), including after mid-batch failures — for every op
//     kind, relation create/drop and domain ENFORCE included — with
//     the same live component ids and allocation point;
//   - lifted reads agree exactly with reads over a fully normalized
//     copy, and each operator's scoped normalization with a full one;
//   - both replicas pass CheckInvariants, which cross-checks the
//     maintained reference index against a rebuild. Half the runs are
//     evict-heavy, interleaving evictions with the ops that drop the
//     index (ENFORCE, REPAIR KEY, DROP TABLE) so the rebuild path runs.
//
// MAYBMS_DELTA_FUZZ_ITERS raises the iteration budget for the long
// `ctest -L fuzz` entry.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/approx_conf.h"
#include "core/confidence.h"
#include "core/delta.h"
#include "core/lifted_executor.h"
#include "core/materialized_conf.h"
#include "core/normalize.h"
#include "sql/session.h"
#include "tests/test_util.h"

namespace maybms {
namespace {

// Every lifted operator in this suite cross-checks its scoped
// normalization against a full Normalize of a copy.
const testing_util::ScopedNormalizeCrossCheck kNormalizeCrossCheck;

using testing_util::DbsExactlyEqual;
using testing_util::RandomWsd;
using testing_util::RandomWsdOptions;

size_t IterationBudget(const char* env_var, size_t default_iters) {
  const char* env = getenv(env_var);
  if (!env) return default_iters;
  long v = strtol(env, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : default_iters;
}

/// A random domain predicate over one column of `r`, built from every
/// expression kind the delta codec encodes.
ExprPtr RandomPredicate(Rng* rng, const WsdRelation& r) {
  const size_t c = rng->NextBelow(r.schema().size());
  const Attribute& attr = r.schema().attr(c);
  const bool is_str = attr.type == ValueType::kString;
  auto value = [&] {
    int v = static_cast<int>(rng->NextBelow(4));
    return is_str ? Value::String(std::string(1, char('a' + v)))
                  : Value::Int(v);
  };
  ExprPtr col = Expr::Column(attr.name);
  const auto op = static_cast<CompareOp>(rng->NextBelow(6));
  switch (rng->NextBelow(4)) {
    case 0:
      return Expr::Compare(op, col, Expr::Const(value()));
    case 1:
      return Expr::Or(Expr::Compare(op, col, Expr::Const(value())),
                      Expr::IsNull(col, rng->NextBernoulli(0.5)));
    case 2:
      return Expr::Not(Expr::In(col, {value(), value()}));
    default:
      if (is_str) {
        return Expr::And(Expr::Compare(op, col, Expr::Const(value())),
                         Expr::Const(Value::Bool(true)));
      }
      return Expr::Compare(
          op, Expr::Arith(ArithOp::kAdd, col, Expr::Const(Value::Int(1))),
          Expr::Const(Value::Int(2)));
  }
}

/// One random delta op against the session's current state. Ops may be
/// invalid (evicting a missing relation, reweighting with bad mass,
/// creating a taken name, conditioning every world away) — deliberately:
/// failed batches must fail identically on both replicas and leave
/// identical states behind. `evict_heavy` trades most reweights for
/// evictions.
void AddRandomOp(Rng* rng, const WsdDb& db, bool evict_heavy,
                 DeltaBatch* batch) {
  auto create = [&] {
    batch->CreateRelation(
        "N" + std::to_string(rng->NextBelow(3)),
        Schema({{"k", ValueType::kInt}, {"v", ValueType::kString}}));
  };
  const std::vector<std::string> rels = db.RelationNames();
  if (rels.empty()) {
    create();
    return;
  }
  const std::string rel = rels[rng->NextBelow(rels.size())];
  const WsdRelation* r = db.GetRelation(rel).value();
  uint64_t kind = rng->NextBelow(14);
  if (evict_heavy && kind >= 7 && kind < 9) kind = 5;
  if (kind < 5) {  // insert a fresh row, ~half its cells or-sets
    std::vector<CellSpec> cells;
    for (size_t c = 0; c < r->schema().size(); ++c) {
      const bool is_str = r->schema().attr(c).type == ValueType::kString;
      auto value = [&] {
        int v = static_cast<int>(rng->NextBelow(4));
        return is_str ? Value::String(std::string(1, char('a' + v)))
                      : Value::Int(v);
      };
      if (rng->NextBernoulli(0.5)) {
        size_t k = 2 + rng->NextBelow(2);
        std::vector<double> probs = rng->NextProbabilities(static_cast<int>(k));
        std::vector<Alternative> alts;
        for (size_t a = 0; a < k; ++a) alts.push_back({value(), probs[a]});
        cells.push_back(CellSpec::OrSet(std::move(alts)));
      } else {
        cells.push_back(CellSpec::Certain(value()));
      }
    }
    batch->Insert(rel, std::move(cells));
  } else if (kind < 7) {  // retire the oldest row(s)
    batch->EvictOldest(rel, 1 + rng->NextBelow(2));
  } else if (kind < 9) {  // reweight a live component
    const std::vector<ComponentId> live = db.LiveComponents();
    if (live.empty()) {
      batch->EvictOldest(rel, 1);
      return;
    }
    const ComponentId cid = live[rng->NextBelow(live.size())];
    const size_t rows = db.component(cid).NumRows();
    batch->Reweight(cid, rng->NextProbabilities(static_cast<int>(rows)));
  } else if (kind < 10) {  // repair on the first column (fails if uncertain)
    batch->RepairKey(rel, {r->schema().attr(0).name});
  } else if (kind < 12) {  // condition on a domain predicate
    batch->Enforce(Constraint::Domain(rel, RandomPredicate(rng, *r)));
  } else if (kind < 13) {
    create();
  } else {
    batch->DropRelation(rel);
  }
}

TEST(DeltaFuzz, IncrementalEqualsScratchBitForBit) {
  const size_t iters = IterationBudget("MAYBMS_DELTA_FUZZ_ITERS", 25);
  Rng rng(20260808);
  uint64_t cache_activity = 0;
  for (size_t iter = 0; iter < iters; ++iter) {
    RandomWsdOptions opt;
    opt.num_relations = 1 + rng.NextBelow(2);
    opt.max_tuples = 4;
    sql::Session session(RandomWsd(&rng, opt));
    ASSERT_TRUE(session.options().materialize_conf);
    MaterializedConf* cache = session.conf_cache();
    ASSERT_NE(cache, nullptr);

    // The shadow replica sees every batch through its WAL encoding.
    WsdDb shadow(session.db());

    const bool evict_heavy = rng.NextBernoulli(0.5);
    const size_t batches =
        evict_heavy ? 8 + rng.NextBelow(8) : 3 + rng.NextBelow(4);
    for (size_t b = 0; b < batches; ++b) {
      DeltaBatch batch;
      const size_t ops = 1 + rng.NextBelow(3);
      for (size_t o = 0; o < ops; ++o) {
        AddRandomOp(&rng, session.db(), evict_heavy, &batch);
      }

      auto direct = session.ApplyDelta(batch);
      auto payload = batch.Serialize();
      MAYBMS_ASSERT_OK(payload.status());
      auto decoded = DeltaBatch::Deserialize(*payload);
      MAYBMS_ASSERT_OK(decoded.status());
      auto replayed = shadow.ApplyDelta(*decoded);

      // Identical outcome — success or failure — and identical state,
      // including the half-applied prefix of a failed batch.
      ASSERT_EQ(direct.ok(), replayed.ok())
          << "iter " << iter << " batch " << b << ":\n"
          << batch.ToString() << direct.status().ToString() << " vs "
          << replayed.status().ToString();
      ASSERT_TRUE(DbsExactlyEqual(session.db(), shadow))
          << "iter " << iter << " batch " << b << " diverged:\n"
          << batch.ToString();
      ASSERT_EQ(session.db().LiveComponents(), shadow.LiveComponents());
      ASSERT_EQ(session.db().component_slot_count(),
                shadow.component_slot_count());
      MAYBMS_ASSERT_OK(session.db().CheckInvariants());
      MAYBMS_ASSERT_OK(shadow.CheckInvariants());
      if (direct.ok()) {
        ASSERT_EQ(direct->tuples_inserted, replayed->tuples_inserted);
        ASSERT_EQ(direct->dirty_components, replayed->dirty_components);
        ASSERT_EQ(direct->removed_components, replayed->removed_components);
      }

      // Incremental vs scratch, bit for bit, on every relation.
      for (const std::string& rel : session.db().RelationNames()) {
        ConfidenceOptions incr;
        incr.cache = cache;
        ConfidenceOptions scratch;  // cache = nullptr

        auto conf_incr = ConfTable(session.db(), rel, incr);
        auto conf_scratch = ConfTable(session.db(), rel, scratch);
        ASSERT_EQ(conf_incr.ok(), conf_scratch.ok());
        if (conf_incr.ok()) {
          ASSERT_EQ(conf_incr->ToString(), conf_scratch->ToString())
              << "CONF diverged on " << rel << " at iter " << iter;
        }

        auto ecount_incr = ExpectedCount(session.db(), rel, incr);
        auto ecount_scratch = ExpectedCount(session.db(), rel, scratch);
        ASSERT_EQ(ecount_incr.ok(), ecount_scratch.ok());
        if (ecount_incr.ok()) {
          ASSERT_EQ(*ecount_incr, *ecount_scratch)
              << "ECOUNT diverged on " << rel << " at iter " << iter;
        }

        const WsdRelation* wr = session.db().GetRelation(rel).value();
        for (size_t c = 0; c < wr->schema().size(); ++c) {
          if (wr->schema().attr(c).type != ValueType::kInt) continue;
          const std::string& col = wr->schema().attr(c).name;
          auto esum_incr = ExpectedSum(session.db(), rel, col, incr);
          auto esum_scratch = ExpectedSum(session.db(), rel, col, scratch);
          ASSERT_EQ(esum_incr.ok(), esum_scratch.ok());
          if (esum_incr.ok()) {
            ASSERT_EQ(*esum_incr, *esum_scratch)
                << "ESUM(" << col << ") diverged on " << rel;
          }
          break;
        }

        ApproxOptions approx_incr;
        approx_incr.seed = 7;
        approx_incr.cache = cache;
        ApproxOptions approx_scratch;
        approx_scratch.seed = 7;
        auto ap_incr = ApproxConfTable(session.db(), rel, approx_incr);
        auto ap_scratch = ApproxConfTable(session.db(), rel, approx_scratch);
        ASSERT_EQ(ap_incr.ok(), ap_scratch.ok());
        if (ap_incr.ok()) {
          ASSERT_EQ(ap_incr->ToString(), ap_scratch->ToString())
              << "APPROX CONF diverged on " << rel << " at iter " << iter;
        }
      }

      // Lifted reads over the evolving database, whose streams keep a
      // reference index: every operator's scoped normalization is
      // cross-checked against a full one, and the answer represents the
      // same worlds as the one read from a fully normalized copy.
      Rng read_rng(iter * 7919 + b);
      WsdDb normalized = session.db();
      MAYBMS_ASSERT_OK(Normalize(&normalized).status());
      for (const std::string& rel : session.db().RelationNames()) {
        const WsdRelation& r = *session.db().GetRelation(rel).value();
        PlanPtr read =
            Plan::Select(Plan::Scan(rel), RandomPredicate(&read_rng, r));
        auto scoped = ExecuteLifted(read, session.db());
        auto full = ExecuteLifted(read, normalized);
        ASSERT_EQ(scoped.ok(), full.ok()) << read->ToString();
        if (!scoped.ok()) continue;
        auto scoped_worlds = EnumerateWorlds(*scoped, 1u << 10);
        auto full_worlds = EnumerateWorlds(*full, 1u << 10);
        if (!scoped_worlds.ok() || !full_worlds.ok()) continue;  // too many
        testing_util::ExpectDistEq(
            testing_util::RelationDistribution(*full_worlds, "result"),
            testing_util::RelationDistribution(*scoped_worlds, "result"));
      }
    }
    // Not every generated db admits a successful confidence query
    // (some random states make every query error), so the exercised-ness
    // check is aggregate, not per-iteration.
    cache_activity += cache->GetStats().hits + cache->GetStats().misses;
  }
  // The cache must actually be exercised for the comparison to mean
  // anything; re-issued queries over unchanged relations hit.
  EXPECT_GT(cache_activity, 0u);
}

}  // namespace
}  // namespace maybms
