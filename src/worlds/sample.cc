#include "worlds/sample.h"

#include <algorithm>
#include <unordered_map>

#include "common/string_util.h"
#include "core/approx_conf.h"
#include "worlds/enumerate.h"

namespace maybms {

namespace {

// Samples a row index of `c` proportionally to row probabilities.
size_t SampleRow(const Component& c, Rng* rng) {
  double u = rng->NextDouble() * c.TotalMass();
  double acc = 0.0;
  const std::vector<double>& probs = c.probs();
  for (size_t r = 0; r < probs.size(); ++r) {
    acc += probs[r];
    if (u < acc) return r;
  }
  return c.NumRows() - 1;
}

}  // namespace

Catalog SampleWorld(const WsdDb& db, Rng* rng) {
  std::vector<ComponentId> comps = db.LiveComponents();
  std::vector<size_t> choice(comps.size());
  for (size_t k = 0; k < comps.size(); ++k) {
    choice[k] = SampleRow(db.component(comps[k]), rng);
  }
  return ResolveWorld(db, comps, choice);
}

Status SampleWorlds(const WsdDb& db, size_t n, Rng* rng,
                    const std::function<Status(const Catalog&)>& fn) {
  for (size_t i = 0; i < n; ++i) {
    MAYBMS_RETURN_IF_ERROR(fn(SampleWorld(db, rng)));
  }
  return Status::OK();
}

Result<Relation> EstimateConfidenceBySampling(const WsdDb& db,
                                              const std::string& rel_name,
                                              const SampleConfOptions& options) {
  if (options.samples == 0) {
    return Status::InvalidArgument("need at least one sample");
  }
  ApproxOptions ao;
  ao.seed = options.seed;
  ao.num_threads = options.num_threads;
  ao.exact_state_limit = options.exact_state_limit;
  ao.sampling_only = true;
  ao.fixed_samples = options.samples;
  MAYBMS_ASSIGN_OR_RETURN(Relation full, ApproxConfTable(db, rel_name, ao));
  // Match the historical schema: drop the interval columns, keep the
  // point estimate (clamped — the raw estimator may overshoot [0, 1]).
  const Schema& s = full.schema();
  std::vector<size_t> keep;
  for (size_t i = 0; i + 2 < s.size(); ++i) keep.push_back(i);
  Relation out(rel_name + "_conf_approx", s.Project(keep));
  const size_t conf_col = s.size() - 3;
  std::vector<Tuple> rows;
  rows.reserve(full.rows().size());
  for (const auto& row : full.rows()) {
    Tuple t(row.begin(), row.begin() + conf_col);
    t.push_back(Value::Double(std::clamp(row[conf_col].as_double(), 0.0, 1.0)));
    rows.push_back(std::move(t));
  }
  // Re-sort: clamping can merge estimates that differed before.
  std::sort(rows.begin(), rows.end(), [&](const Tuple& a, const Tuple& b) {
    if (a[conf_col].as_double() != b[conf_col].as_double()) {
      return a[conf_col].as_double() > b[conf_col].as_double();
    }
    return TupleCompare(a, b) < 0;
  });
  for (Tuple& t : rows) out.AppendUnchecked(std::move(t));
  return out;
}

Result<Relation> ApproximateConfTableByWorlds(const WsdDb& db,
                                              const std::string& rel_name,
                                              size_t samples, uint64_t seed) {
  MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* rel, db.GetRelation(rel_name));
  if (samples == 0) {
    return Status::InvalidArgument("need at least one sample");
  }
  struct VectorHash {
    size_t operator()(const Tuple& t) const { return TupleHash(t); }
  };
  struct VectorEq {
    bool operator()(const Tuple& a, const Tuple& b) const {
      return TupleCompare(a, b) == 0;
    }
  };
  std::unordered_map<Tuple, size_t, VectorHash, VectorEq> counts;
  Rng rng(seed);
  MAYBMS_RETURN_IF_ERROR(SampleWorlds(
      db, samples, &rng, [&](const Catalog& world) -> Status {
        MAYBMS_ASSIGN_OR_RETURN(const Relation* r, world.Get(rel_name));
        // Count each distinct vector once per world.
        std::unordered_map<Tuple, bool, VectorHash, VectorEq> present;
        for (const auto& row : r->rows()) present.emplace(row, true);
        for (const auto& [v, unused] : present) counts[v]++;
        return Status::OK();
      }));
  Schema out_schema = rel->schema();
  std::string conf_name = "conf";
  int suffix = 2;
  while (out_schema.IndexOf(conf_name)) {
    conf_name = "conf_" + std::to_string(suffix++);
  }
  MAYBMS_RETURN_IF_ERROR(out_schema.Add({conf_name, ValueType::kDouble}));
  std::vector<std::pair<Tuple, double>> rows;
  rows.reserve(counts.size());
  for (const auto& [v, n] : counts) {
    rows.emplace_back(v, static_cast<double>(n) /
                             static_cast<double>(samples));
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return TupleCompare(a.first, b.first) < 0;
  });
  Relation out(rel_name + "_conf_approx", out_schema);
  for (auto& [v, p] : rows) {
    Tuple t = v;
    t.push_back(Value::Double(p));
    out.AppendUnchecked(std::move(t));
  }
  return out;
}

Result<MapWorld> MostProbableWorld(const WsdDb& db) {
  std::vector<ComponentId> comps = db.LiveComponents();
  std::vector<size_t> choice(comps.size());
  double prob = 1.0;
  for (size_t k = 0; k < comps.size(); ++k) {
    const Component& c = db.component(comps[k]);
    if (c.NumRows() == 0) {
      return Status::Inconsistent("empty component — empty world-set");
    }
    size_t best = 0;
    for (size_t r = 1; r < c.NumRows(); ++r) {
      if (c.prob(r) > c.prob(best)) best = r;
    }
    choice[k] = best;
    prob *= c.prob(best);
  }
  return MapWorld{ResolveWorld(db, comps, choice), prob};
}

}  // namespace maybms
