#include "core/approx_conf.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "core/component.h"
#include "core/materialized_conf.h"

namespace maybms {

namespace {

/// State spaces up to this size get a per-state memo of present-vector
/// lists, collapsing repeat samples to one table read.
constexpr size_t kStateMemoStates = size_t{1} << 20;
/// Samples per parallel batch. Fixed so that batch boundaries — and with
/// them the Rng::Split substreams — do not depend on the thread count.
constexpr size_t kSampleBatch = 256;

/// Append-only Tuple → dense id map shared by every cluster evaluation.
/// Ids are assigned in first-intern order (scheduling-dependent), but
/// only used as internal keys: all output is re-keyed by Tuple.
class VectorInterner {
 public:
  int32_t Intern(const Tuple& t) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, fresh] = ids_.emplace(t, static_cast<int32_t>(tuples_.size()));
    if (fresh) tuples_.push_back(t);
    return it->second;
  }

  // Safe only after all interning threads joined.
  size_t size() const { return tuples_.size(); }
  const Tuple& tuple(int32_t id) const { return tuples_[id]; }

 private:
  std::mutex mu_;
  std::unordered_map<Tuple, int32_t, TupleValueHash, TupleValueEq> ids_;
  std::deque<Tuple> tuples_;  ///< stable references under growth
};

/// Per-vector probability interval within one cluster.
struct Interval {
  double lo = 0.0;
  double est = 0.0;
  double hi = 0.0;
};

/// Result of evaluating one cluster (or the certain-tuple pile).
struct ClusterOutcome {
  ClusterPath path = ClusterPath::kExact;
  std::unordered_map<int32_t, Interval> iv;
  /// Upper bound for vectors this cluster never produced in any visited
  /// or sampled state (their interval is [0, unseen_hi]).
  double unseen_hi = 0.0;
};

/// Joint state count of a cluster's factors, saturated at SIZE_MAX.
/// Returns 0 when some factor is empty (the exact path turns that into
/// a proper Inconsistent error).
size_t StateCount(const ClusterIndex& index, const Cluster& cluster) {
  size_t states = 1;
  for (FactorId f : cluster.factors) {
    size_t rows = index.factor(f).comp->NumRows();
    if (rows == 0) return 0;
    if (states > std::numeric_limits<size_t>::max() / rows) {
      return std::numeric_limits<size_t>::max();
    }
    states *= rows;
  }
  return states;
}

/// Draws joint cluster states directly from the product of the factor
/// row distributions and counts, per distinct value vector, the states
/// in which it is present. Thread-compatible: SampleBatch is const and
/// callable concurrently (the memo uses idempotent atomic publication —
/// racing threads compute identical lists, one wins the CAS).
class ClusterSampler {
 public:
  ClusterSampler(const ClusterIndex& index, const Cluster& cluster,
                 VectorInterner* intern)
      : proto_(index, cluster.factors),
        members_(ResolveClusterMembers(index, cluster, proto_)),
        arity_(index.rel().schema().size()),
        intern_(intern) {
    const size_t nf = proto_.NumFactors();
    cum_.resize(nf);
    mass_.resize(nf);
    size_t states = 1;
    bool huge = false;
    for (size_t k = 0; k < nf; ++k) {
      const Component* c = proto_.component(static_cast<uint32_t>(k));
      double run = 0.0;
      cum_[k].reserve(c->NumRows());
      for (double p : c->probs()) {
        run += p;
        cum_[k].push_back(run);
      }
      mass_[k] = run;
      const size_t rows = c->NumRows();
      if (rows == 0 || states > kStateMemoStates / rows) {
        huge = true;
      } else {
        states *= rows;
      }
    }
    if (!huge && states <= kStateMemoStates) {
      stride_.resize(nf);
      size_t s = 1;
      for (size_t k = 0; k < nf; ++k) {
        stride_[k] = s;
        s *= proto_.component(static_cast<uint32_t>(k))->NumRows();
      }
      memo_ = std::make_unique<std::atomic<const std::vector<int32_t>*>[]>(
          states);
      for (size_t i = 0; i < states; ++i) {
        memo_[i].store(nullptr, std::memory_order_relaxed);
      }
    }

    // Union bound on the number of distinct vectors the cluster can
    // produce: per member, the product of the distinct-value counts of
    // its referenced slots (certain cells contribute a factor of 1).
    double bound = 0.0;
    for (const ClusterMember& m : members_) {
      double prod = 1.0;
      for (const auto& [pos, slot] : m.cell_pos) {
        if (pos == ClusterMember::kCertainCell) continue;
        const ComponentStats& st = proto_.component(pos)->GetStats();
        prod = std::min(1e15, prod * static_cast<double>(st.distinct[slot]));
      }
      bound = std::min(1e15, bound + prod);
    }
    vector_bound_ = std::max(1.0, bound);
  }

  /// Union bound on the cluster's distinct producible vectors (≥ 1).
  double vector_bound() const { return vector_bound_; }

  /// Draws `count` states with `rng`; for each state, every distinct
  /// present vector gets one hit. Appends (id, hits) pairs to `out`.
  void SampleBatch(Rng rng, size_t count,
                   std::vector<std::pair<int32_t, uint64_t>>* out) const {
    ClusterEnumerator en = proto_;
    std::unordered_map<int32_t, uint64_t> hits;
    std::vector<int32_t> present;
    Tuple v(arity_);
    const size_t nf = cum_.size();
    for (size_t i = 0; i < count; ++i) {
      size_t key = 0;
      for (size_t k = 0; k < nf; ++k) {
        const std::vector<double>& c = cum_[k];
        const double u = rng.NextDouble() * mass_[k];
        size_t r = static_cast<size_t>(
            std::upper_bound(c.begin(), c.end(), u) - c.begin());
        if (r >= c.size()) r = c.size() - 1;
        en.SetChoice(static_cast<uint32_t>(k), r);
        if (memo_) key += r * stride_[k];
      }
      if (memo_) {
        const std::vector<int32_t>* list =
            memo_[key].load(std::memory_order_acquire);
        if (list == nullptr) list = FillMemo(en, key);
        for (int32_t id : *list) ++hits[id];
      } else {
        present.clear();
        for (const ClusterMember& m : members_) {
          if (MemberVectorAt(en, m, &v)) present.push_back(intern_->Intern(v));
        }
        std::sort(present.begin(), present.end());
        present.erase(std::unique(present.begin(), present.end()),
                      present.end());
        for (int32_t id : present) ++hits[id];
      }
    }
    out->reserve(out->size() + hits.size());
    for (const auto& [id, n] : hits) out->emplace_back(id, n);
  }

 private:
  const std::vector<int32_t>* FillMemo(const ClusterEnumerator& en,
                                       size_t key) const {
    auto list = std::make_unique<std::vector<int32_t>>();
    Tuple v(arity_);
    for (const ClusterMember& m : members_) {
      if (MemberVectorAt(en, m, &v)) list->push_back(intern_->Intern(v));
    }
    std::sort(list->begin(), list->end());
    list->erase(std::unique(list->begin(), list->end()), list->end());
    const std::vector<int32_t>* mine = list.get();
    const std::vector<int32_t>* expected = nullptr;
    if (memo_[key].compare_exchange_strong(expected, mine,
                                           std::memory_order_release,
                                           std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(pool_mu_);
      pool_.push_back(std::move(list));
      return mine;
    }
    return expected;  // another thread published the identical list
  }

  ClusterEnumerator proto_;  ///< copied per batch for SetChoice state
  std::vector<ClusterMember> members_;
  size_t arity_;
  VectorInterner* intern_;
  std::vector<std::vector<double>> cum_;  ///< per factor: cumulative probs
  std::vector<double> mass_;              ///< per factor: total mass
  double vector_bound_ = 1.0;
  /// State-level memo (small state spaces): packed state → deduped
  /// present-vector ids, published by CAS.
  std::vector<size_t> stride_;
  std::unique_ptr<std::atomic<const std::vector<int32_t>*>[]> memo_;
  mutable std::mutex pool_mu_;
  mutable std::vector<std::unique_ptr<std::vector<int32_t>>> pool_;
};

/// Exact per-vector mass of a small cluster (the phase-1 path).
Result<TupleProbMap> EvalExact(const ClusterIndex& index,
                               const Cluster& cluster, size_t state_limit) {
  ClusterMassScan scan(index, cluster);
  MAYBMS_RETURN_IF_ERROR(
      scan.enumerator().CheckBudget(state_limit, "approx conf cluster")
          .status());
  scan.Run(state_limit);
  return std::move(scan).TakeMass();
}

/// Signature of a member's referenced slots in one factor row, under
/// Value equality (PackedValue's ==/Hash collapse int/double and ±0).
using Sig = std::vector<PackedValue>;
struct SigHash {
  size_t operator()(const Sig& s) const {
    uint64_t h = 1469598103934665603ull;
    for (const PackedValue& v : s) {
      h ^= static_cast<uint64_t>(v.Hash());
      h *= 1099511628211ull;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  }
};
struct SigEq {
  bool operator()(const Sig& a, const Sig& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
};

/// Exact per-member marginal fast path. A member's presence and value
/// vector depend only on the rows chosen for the factors it touches;
/// factors draw independently, so its exact vector distribution is the
/// cross product, over touched factors, of one-pass marginals of its
/// referenced slots (rows with a ⊥ gating or ⊥ referenced slot drop
/// out), scaled by the total mass of the untouched factors. When no
/// vector is producible by two DIFFERENT members, the per-vector
/// cluster probability is exactly that member marginal. Returns nullopt
/// when the structure does not cooperate — colliding members, blown-up
/// signature domains, degenerate factor masses — and the caller falls
/// back to the anytime loop.
std::optional<ClusterOutcome> TryMemberMarginals(const ClusterIndex& index,
                                                 const Cluster& cluster,
                                                 VectorInterner* intern) {
  constexpr size_t kMaxQueryCombos = 4096;    // per (factor, slot set)
  constexpr size_t kMaxClusterCombos = size_t{1} << 16;
  constexpr size_t kMaxRowReads = size_t{1} << 24;

  ClusterEnumerator en(index, cluster.factors);
  const size_t nf = en.NumFactors();
  const size_t arity = index.rel().schema().size();
  std::vector<ClusterMember> members =
      ResolveClusterMembers(index, cluster, en);

  std::vector<double> factor_mass(nf);
  for (size_t k = 0; k < nf; ++k) {
    factor_mass[k] = en.component(static_cast<uint32_t>(k))->TotalMass();
    if (!(factor_mass[k] > 0.0)) return std::nullopt;
  }

  // One pass over a factor's rows for a (ref slots, gating slots) pair:
  // mass per distinct referenced-slot signature. Shared across members
  // with the same access pattern.
  struct Query {
    std::vector<std::pair<Sig, double>> combos;
  };
  std::map<std::tuple<uint32_t, std::vector<uint32_t>, std::vector<uint32_t>>,
           std::optional<Query>>
      cache;
  size_t row_budget = kMaxRowReads;
  auto run_query = [&](uint32_t k, const std::vector<uint32_t>& refs,
                       const std::vector<uint32_t>& gates) -> const Query* {
    auto key = std::make_tuple(k, refs, gates);
    auto it = cache.find(key);
    if (it != cache.end()) {
      return it->second ? &*it->second : nullptr;
    }
    std::optional<Query>& slot = cache[key];
    const Component* c = en.component(k);
    const ComponentStats& st = c->GetStats();
    double domain = 1.0;
    for (uint32_t s : refs) {
      domain *= static_cast<double>(st.distinct[s]);
    }
    const size_t rows = c->NumRows();
    if (domain > static_cast<double>(kMaxQueryCombos) || rows > row_budget) {
      return nullptr;  // slot stays nullopt: cached failure
    }
    row_budget -= rows;
    Query q;
    std::unordered_map<Sig, size_t, SigHash, SigEq> pos;
    const std::vector<double>& probs = c->probs();
    Sig sig;
    sig.reserve(refs.size());
    size_t last = SIZE_MAX;
    for (size_t r = 0; r < rows; ++r) {
      const double p = probs[r];
      if (p <= 0.0) continue;
      bool dead = false;
      for (uint32_t g : gates) {
        if (c->packed(r, g).is_bottom()) {
          dead = true;
          break;
        }
      }
      if (dead) continue;
      sig.clear();
      for (uint32_t s : refs) {
        const PackedValue& pv = c->packed(r, s);
        if (pv.is_bottom()) {
          dead = true;
          break;
        }
        sig.push_back(pv);
      }
      if (dead) continue;
      // Columns are often runs of equal values; try the previous row's
      // combo before paying for a hash lookup.
      if (last != SIZE_MAX && SigEq()(q.combos[last].first, sig)) {
        q.combos[last].second += p;
        continue;
      }
      auto pit = pos.find(sig);
      if (pit == pos.end()) {
        last = q.combos.size();
        pos.emplace(sig, last);
        q.combos.emplace_back(sig, p);
      } else {
        last = pit->second;
        q.combos[last].second += p;
      }
    }
    slot = std::move(q);
    return &*slot;
  };

  TupleProbMap dist;
  std::unordered_map<Tuple, size_t, TupleValueHash, TupleValueEq> owner;
  size_t total_combos = 0;
  for (size_t mi = 0; mi < members.size(); ++mi) {
    const ClusterMember& m = members[mi];
    // Access pattern per factor: referenced (cell, slot) pairs in cell
    // order, plus the gating slots.
    std::vector<std::vector<std::pair<size_t, uint32_t>>> refs_by_factor(nf);
    for (size_t c = 0; c < m.cell_pos.size(); ++c) {
      const auto& [pos, slot] = m.cell_pos[c];
      if (pos != ClusterMember::kCertainCell) {
        refs_by_factor[pos].emplace_back(c, slot);
      }
    }
    std::vector<const Query*> qs;
    std::vector<std::vector<size_t>> cell_map;  // per query: cell indexes
    double scale = 1.0;
    for (size_t k = 0; k < nf; ++k) {
      const bool touched =
          !refs_by_factor[k].empty() ||
          (k < m.gating.size() && !m.gating[k].empty());
      if (!touched) {
        scale *= factor_mass[k];
        continue;
      }
      std::vector<uint32_t> ref_slots;
      std::vector<size_t> cells;
      for (const auto& [cell, slot] : refs_by_factor[k]) {
        cells.push_back(cell);
        ref_slots.push_back(slot);
      }
      const Query* q = run_query(
          static_cast<uint32_t>(k), ref_slots,
          k < m.gating.size() ? m.gating[k] : std::vector<uint32_t>{});
      if (q == nullptr) return std::nullopt;
      qs.push_back(q);
      cell_map.push_back(std::move(cells));
    }

    size_t combos = 1;
    bool absent = false;
    for (const Query* q : qs) {
      if (q->combos.empty()) {
        absent = true;
        break;
      }
      if (combos > kMaxClusterCombos / q->combos.size()) return std::nullopt;
      combos *= q->combos.size();
    }
    if (absent) continue;  // the member exists in no state
    total_combos += combos;
    if (total_combos > kMaxClusterCombos) return std::nullopt;

    Tuple v(arity);
    for (size_t c = 0; c < m.cell_pos.size(); ++c) {
      if (m.cell_pos[c].first == ClusterMember::kCertainCell) {
        v[c] = m.t->cells[c].value();
      }
    }
    std::vector<size_t> pick(qs.size(), 0);
    for (;;) {
      double p = scale;
      for (size_t i = 0; i < qs.size(); ++i) {
        const auto& [sig, mass] = qs[i]->combos[pick[i]];
        p *= mass;
        for (size_t j = 0; j < cell_map[i].size(); ++j) {
          v[cell_map[i][j]] = sig[j].ToValue();
        }
      }
      auto [oit, fresh] = owner.emplace(v, mi);
      if (!fresh && oit->second != mi) {
        return std::nullopt;  // two members can produce this vector
      }
      dist[v] += p;
      size_t i = 0;
      for (; i < pick.size(); ++i) {
        if (++pick[i] < qs[i]->combos.size()) break;
        pick[i] = 0;
      }
      if (i == pick.size()) break;
    }
  }

  ClusterOutcome out;
  out.path = ClusterPath::kExact;
  out.iv.reserve(dist.size());
  for (const auto& [t, p] : dist) {
    const double pc = std::clamp(p, 0.0, 1.0);
    out.iv[intern->Intern(t)] = Interval{pc, pc, pc};
  }
  return out;
}

/// Anytime evaluation of one non-tiny cluster: interleaves odometer
/// enumeration (deterministic brackets) with batched Monte-Carlo
/// sampling until either half-width is ≤ eps_c or budgets run out.
ClusterOutcome EvalAnytime(const ClusterIndex& index, const Cluster& cluster,
                           const ApproxOptions& opt, double eps_c,
                           double delta_c, uint64_t ordinal,
                           VectorInterner* intern, ApproxConfStats* stats) {
  if (opt.member_marginals && !opt.sampling_only && opt.fixed_samples == 0) {
    if (auto fast = TryMemberMarginals(index, cluster, intern)) {
      return *std::move(fast);
    }
  }
  ClusterMassScan scan(index, cluster);
  ClusterSampler sampler(index, cluster, intern);
  const double total = scan.total_mass();
  const double log_term =
      std::log(std::max(2.0, 2.0 * sampler.vector_bound() / delta_c));

  // Samples needed for the Hoeffding half-width to reach eps_c.
  size_t n_target = opt.max_samples;
  if (opt.fixed_samples > 0) {
    n_target = opt.fixed_samples;
  } else if (eps_c > 0.0) {
    const double need =
        std::ceil(total * total * log_term / (2.0 * eps_c * eps_c));
    if (need < static_cast<double>(opt.max_samples)) {
      n_target = static_cast<size_t>(need);
    }
  }

  const Rng base = Rng(opt.seed).Split(ordinal);
  std::unordered_map<int32_t, uint64_t> hits;
  size_t n = 0;
  uint64_t next_batch = 0;
  double hw = std::numeric_limits<double>::infinity();
  for (;;) {
    const bool enum_on = !opt.sampling_only && !scan.done() &&
                         scan.states_visited() < opt.max_enum_states;
    const size_t enum_now =
        enum_on ? std::min(opt.enum_chunk,
                           opt.max_enum_states - scan.states_visited())
                : 0;
    const size_t sample_now =
        n < n_target ? std::min(opt.sample_chunk, n_target - n) : 0;
    if (enum_now == 0 && sample_now == 0) break;

    const size_t batches = (sample_now + kSampleBatch - 1) / kSampleBatch;
    std::vector<std::vector<std::pair<int32_t, uint64_t>>> batch_hits(batches);
    const size_t tasks = batches + (enum_now ? 1 : 0);
    ParallelFor(opt.num_threads, tasks, [&](size_t t) {
      if (enum_now && t == 0) {
        scan.Run(enum_now);
        return;
      }
      const size_t b = enum_now ? t - 1 : t;
      const size_t cnt =
          std::min(kSampleBatch, sample_now - b * kSampleBatch);
      sampler.SampleBatch(base.Split(next_batch + b), cnt, &batch_hits[b]);
    });
    next_batch += batches;
    n += sample_now;
    for (const auto& bh : batch_hits) {
      for (const auto& [id, c] : bh) hits[id] += c;
    }

    // Stopping rules, on fully merged round state only (determinism).
    if (scan.done()) break;
    if (n > 0) {
      hw = total * std::sqrt(log_term / (2.0 * static_cast<double>(n)));
    }
    if (opt.fixed_samples > 0) {
      if (n >= n_target) break;
      continue;
    }
    const double u2 = scan.unvisited_mass() * 0.5;
    if (u2 <= eps_c || hw <= eps_c) break;
  }

  const double unvisited = scan.done() ? 0.0 : scan.unvisited_mass();
  if (n == 0) hw = std::numeric_limits<double>::infinity();

  ClusterOutcome out;
  if (opt.sampling_only) {
    out.path = ClusterPath::kSampled;
  } else if (scan.done()) {
    out.path = ClusterPath::kExact;
  } else {
    out.path =
        unvisited * 0.5 <= hw ? ClusterPath::kBracket : ClusterPath::kSampled;
  }
  stats->total_samples += n;
  stats->total_states += scan.states_visited();
  stats->max_half_width =
      std::max(stats->max_half_width, std::min(unvisited * 0.5, hw));

  std::unordered_map<int32_t, double> enum_mass;
  if (!opt.sampling_only) {
    enum_mass.reserve(scan.mass().size());
    for (const auto& [t, p] : scan.mass()) enum_mass[intern->Intern(t)] = p;
  }

  auto build = [&](int32_t id) {
    auto mit = enum_mass.find(id);
    const double m = mit == enum_mass.end() ? 0.0 : mit->second;
    auto hit = hits.find(id);
    const uint64_t h = hit == hits.end() ? 0 : hit->second;
    Interval iv;
    if (opt.sampling_only) {
      // Raw frequency estimator: exactly unbiased through the product
      // combine, so it is deliberately left unclamped.
      iv.est = total * static_cast<double>(h) / static_cast<double>(n);
      iv.lo = std::clamp(iv.est - hw, 0.0, 1.0);
      iv.hi = std::clamp(iv.est + hw, 0.0, 1.0);
      return iv;
    }
    // Summed state masses can round past 1.0; capping the enumerated
    // mass keeps lo_b <= hi_b, so every clamp below has lo <= hi and the
    // interval satisfies lo <= est <= hi by construction.
    const double lo_b = std::min(m, 1.0);
    const double hi_b = std::min(1.0, lo_b + unvisited);
    if (n > 0) {
      const double est_s =
          total * static_cast<double>(h) / static_cast<double>(n);
      iv.lo = std::max(lo_b, est_s - hw);
      iv.hi = std::min(hi_b, est_s + hw);
      if (iv.lo > iv.hi) {
        // The (probabilistic) CI contradicts the sound bracket: keep
        // the bracket.
        iv.lo = lo_b;
        iv.hi = hi_b;
      }
      iv.est = std::clamp(scan.done() ? lo_b : est_s, iv.lo, iv.hi);
    } else {
      iv.lo = lo_b;
      iv.hi = hi_b;
      iv.est = std::clamp(lo_b + unvisited * 0.5, iv.lo, iv.hi);
    }
    return iv;
  };

  out.iv.reserve(enum_mass.size() + hits.size());
  for (const auto& [id, m] : enum_mass) out.iv.emplace(id, build(id));
  for (const auto& [id, h] : hits) {
    if (out.iv.find(id) == out.iv.end()) out.iv.emplace(id, build(id));
  }
  out.unseen_hi = std::min(1.0, std::min(unvisited, hw));
  if (opt.sampling_only) out.unseen_hi = std::min(1.0, hw);
  return out;
}

}  // namespace

Result<Relation> ApproxConfTable(const WsdDb& db, const std::string& rel_name,
                                 const ApproxOptions& options,
                                 ApproxConfStats* stats) {
  if (!(options.epsilon > 0.0) || options.epsilon >= 1.0) {
    return Status::InvalidArgument("APPROX CONF epsilon must be in (0, 1)");
  }
  if (!(options.delta > 0.0) || options.delta >= 1.0) {
    return Status::InvalidArgument("APPROX CONF delta must be in (0, 1)");
  }
  MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* rel, db.GetRelation(rel_name));

  ClusterIndexOptions ci;
  ci.factorize = options.factorize_clusters;
  ClusterIndex index(db, *rel, ci);
  const std::vector<Cluster>& clusters = index.clusters();

  ApproxConfStats local_stats;
  local_stats.clusters = clusters.size();

  VectorInterner intern;
  // Outcome slot 0 is the certain-tuple pile; cluster i fills slot i+1.
  std::vector<ClusterOutcome> outcomes(clusters.size() + 1);
  if (!index.certain_tuples().empty()) {
    ClusterOutcome& pile = outcomes[0];
    for (size_t i : index.certain_tuples()) {
      Tuple v;
      v.reserve(rel->schema().size());
      for (const auto& cell : rel->tuple(i).cells) v.push_back(cell.value());
      pile.iv[intern.Intern(v)] = Interval{1.0, 1.0, 1.0};
    }
  }

  // Phase split: tiny clusters are enumerated exactly (zero error); the
  // ε/δ budget is divided evenly over the K remaining ones.
  std::vector<size_t> exact_idx, anytime_idx;
  for (size_t i = 0; i < clusters.size(); ++i) {
    (StateCount(index, clusters[i]) <= options.exact_state_limit ? exact_idx
                                                                 : anytime_idx)
        .push_back(i);
  }
  const size_t k_any = std::max<size_t>(1, anytime_idx.size());
  const double eps_c = options.epsilon / static_cast<double>(k_any);
  const double delta_c = options.delta / static_cast<double>(k_any);

  // Phase 1: exact clusters, batched across the pool (same shape as
  // ConfTable's cluster loop).
  const size_t n_exact = exact_idx.size();
  const size_t threads =
      options.num_threads ? options.num_threads : DefaultNumThreads();
  const size_t n_batches = std::min(n_exact, std::max<size_t>(1, threads * 8));
  const size_t per_batch =
      n_batches ? (n_exact + n_batches - 1) / n_batches : 0;
  std::vector<Status> statuses(n_exact, Status::OK());
  std::atomic<bool> failed{false};
  // Exact-phase cache salt: the exact result depends on which clusters
  // qualify as tiny (state limit) and on the factor decomposition.
  uint64_t approx_salt = 0;
  if (options.cache != nullptr) {
    size_t seed = static_cast<size_t>(conf_cache_salt::kApprox);
    HashCombine(&seed, options.exact_state_limit);
    HashCombine(&seed, options.factorize_clusters ? 1 : 2);
    approx_salt = static_cast<uint64_t>(seed);
  }
  ParallelFor(options.num_threads, n_batches, [&](size_t b) {
    const size_t begin = b * per_batch;
    const size_t end = std::min(n_exact, begin + per_batch);
    for (size_t e = begin; e < end; ++e) {
      if (failed.load(std::memory_order_relaxed)) return;
      const size_t cidx = exact_idx[e];
      std::shared_ptr<const TupleProbMap> mass;
      uint64_t key = 0;
      if (options.cache != nullptr) {
        key = index.ClusterKey(clusters[cidx], approx_salt);
        mass = options.cache->FindMass(key);
      }
      if (mass == nullptr) {
        Result<TupleProbMap> r =
            EvalExact(index, clusters[cidx], options.exact_state_limit);
        if (!r.ok()) {
          statuses[e] = r.status();
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        mass = std::make_shared<const TupleProbMap>(*std::move(r));
        if (options.cache != nullptr) options.cache->InsertMass(key, mass);
      }
      ClusterOutcome& out = outcomes[cidx + 1];
      out.path = ClusterPath::kExact;
      out.iv.reserve(mass->size());
      for (const auto& [t, p] : *mass) {
        const double pc = std::min(1.0, p);
        out.iv[intern.Intern(t)] = Interval{pc, pc, pc};
      }
    }
  });
  for (const Status& st : statuses) MAYBMS_RETURN_IF_ERROR(st);
  local_stats.exact_clusters = n_exact;

  // Phase 2: anytime clusters, serial across clusters (each round
  // parallelizes internally over sample batches + the enum cursor).
  for (size_t a = 0; a < anytime_idx.size(); ++a) {
    const size_t cidx = anytime_idx[a];
    ClusterOutcome out =
        EvalAnytime(index, clusters[cidx], options, eps_c, delta_c,
                    /*ordinal=*/static_cast<uint64_t>(cidx), &intern,
                    &local_stats);
    switch (out.path) {
      case ClusterPath::kExact:
        ++local_stats.exact_clusters;
        break;
      case ClusterPath::kBracket:
        ++local_stats.bracket_clusters;
        break;
      case ClusterPath::kSampled:
        ++local_stats.sampled_clusters;
        break;
    }
    outcomes[cidx + 1] = std::move(out);
  }

  // Combine: per vector, conf = 1 − Π_c (1 − p_c), applied to lo / est /
  // hi separately (the map is monotone in each coordinate, so interval
  // endpoints map to interval endpoints).
  const size_t n_ids = intern.size();
  Schema out_schema = rel->schema();
  std::string conf_name = "conf";
  int suffix = 2;
  auto collides = [&](const std::string& base) {
    return out_schema.IndexOf(base) || out_schema.IndexOf(base + "_lo") ||
           out_schema.IndexOf(base + "_hi");
  };
  while (collides(conf_name)) conf_name = "conf_" + std::to_string(suffix++);
  MAYBMS_RETURN_IF_ERROR(out_schema.Add({conf_name, ValueType::kDouble}));
  MAYBMS_RETURN_IF_ERROR(
      out_schema.Add({conf_name + "_lo", ValueType::kDouble}));
  MAYBMS_RETURN_IF_ERROR(
      out_schema.Add({conf_name + "_hi", ValueType::kDouble}));

  struct Row {
    const Tuple* v;
    double conf, lo, hi;
  };
  std::vector<Row> rows;
  rows.reserve(n_ids);
  for (size_t id = 0; id < n_ids; ++id) {
    double alo = 1.0, aest = 1.0, ahi = 1.0;
    for (const ClusterOutcome& o : outcomes) {
      auto it = o.iv.find(static_cast<int32_t>(id));
      if (it != o.iv.end()) {
        alo *= 1.0 - it->second.lo;
        aest *= 1.0 - it->second.est;
        ahi *= 1.0 - it->second.hi;
      } else {
        ahi *= 1.0 - o.unseen_hi;
      }
    }
    Row r;
    r.v = &intern.tuple(static_cast<int32_t>(id));
    r.lo = 1.0 - alo;
    r.hi = 1.0 - ahi;
    r.conf = 1.0 - aest;
    if (!options.sampling_only) r.conf = std::clamp(r.conf, r.lo, r.hi);
    rows.push_back(r);
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.conf != b.conf) return a.conf > b.conf;
    return TupleCompare(*a.v, *b.v) < 0;
  });

  Relation out(rel_name + "_conf", out_schema);
  for (const Row& r : rows) {
    Tuple t = *r.v;
    t.push_back(Value::Double(r.conf));
    t.push_back(Value::Double(r.lo));
    t.push_back(Value::Double(r.hi));
    out.AppendUnchecked(std::move(t));
  }
  if (stats) *stats = local_stats;
  return out;
}

}  // namespace maybms
