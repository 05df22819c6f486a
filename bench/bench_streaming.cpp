// Streaming-ingest experiment: incremental confidence maintenance
// through the unified delta API vs full recomputation.
//
// Setup: a sliding window of noisy sensor readings over 64 sites. Each
// reading's condition and temperature are or-sets (several sensors
// voting on a small discrete domain), so every tuple is its own
// confidence cluster with a joint state space much larger than its
// distinct-answer set. Per tick, one DeltaBatch retires the oldest
// readings and ingests the same number of fresh ones through
// sql::Session::ApplyDelta — the streaming entry point — touching
// ~1/16 of the window. The windowed confidence query (CONF over the
// window) then runs twice against the identical database state:
//
//   incremental  — with the session's MaterializedConf cache: only
//                  clusters whose components the delta dirtied re-scan
//                  (their content key changed); the rest replay the
//                  cached mass maps.
//   full         — cache = nullptr: every cluster re-enumerates.
//
// Both answers must be bit-identical (MAYBMS_CHECK on the rendered
// tables; ESUM is compared as exact doubles), and at window >= 512 the
// incremental path must be at least 5x faster — the gate the
// maintenance machinery exists to pass.
//
// A second section times window retirement alone: one
// WsdDb::ApplyDelta(EvictOldest 16) at windows of 1,024 and 16,384
// readings (fixed sizes at every scale), median over ticks that each
// first insert 16 fresh readings. Eviction visits only the evicted
// tuples and their candidate components, so the two figures should be
// close; the stored component-id span at the end shows that retired ids
// are not kept.
//
// A third section times the stream's read shapes through sql::Session —
// a point read on the certain site column, a PROB() site-range read, an
// ESUM and an ECOUNT read, and the APPROX CONF self-join — at windows of
// 1,024 and 4,096 readings (fixed sizes at every scale), each read after
// a write tick (16 evicted, 16 inserted), median over the reps. Next to
// each time it reports deterministic counters from the first rep: the
// components normalization visited, and the unreachable components it
// released without visiting, for the whole statement. The visits follow
// what the read touches: at the point read they stay within a small
// multiple of the components its answer tuples reference.
//
// Emits BENCH_streaming.json: sustained ingest ns/event, per-query
// latency of both paths, the eviction figures and the read shapes,
// regression-gated by scripts/bench_compare.py (the counters exactly).
#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/confidence.h"
#include "core/delta.h"
#include "core/normalize.h"
#include "sql/session.h"

using namespace maybms;
using namespace maybms::bench;

namespace {

constexpr size_t kSites = 64;
constexpr size_t kSensors = 16;  ///< or-set rows per uncertain cell

const char* const kConditions[] = {"clear", "rain", "snow"};
constexpr int kTemps[] = {-2, 4, 11, 19};

/// One reading: certain site, condition and temperature each an or-set
/// of kSensors votes over a small discrete domain (duplicate values with
/// independent weights — many joint states, few distinct answers).
std::vector<CellSpec> MakeReading(std::mt19937_64* rng) {
  std::uniform_int_distribution<size_t> site(0, kSites - 1);
  std::uniform_int_distribution<int> weight(1, 8);
  auto or_set = [&](auto value_at, size_t domain) {
    std::vector<Alternative> alts;
    alts.reserve(kSensors);
    double total = 0.0;
    std::vector<int> w(kSensors);
    for (size_t i = 0; i < kSensors; ++i) total += w[i] = weight(*rng);
    std::uniform_int_distribution<size_t> pick(0, domain - 1);
    for (size_t i = 0; i < kSensors; ++i) {
      alts.push_back({value_at(pick(*rng)), static_cast<double>(w[i]) / total});
    }
    return CellSpec::OrSet(std::move(alts));
  };
  return {CellSpec::Certain(Value::Int(static_cast<int64_t>(site(*rng)))),
          or_set([](size_t i) { return Value::String(kConditions[i]); }, 3),
          or_set([](size_t i) { return Value::Int(kTemps[i]); }, 4)};
}

struct EvictTiming {
  double median_ns = 0.0;
  size_t slot_count = 0;
  size_t span = 0;
};

/// Median time of ApplyDelta(EvictOldest 16) on a `window`-reading
/// sliding window, over kEvictTicks ticks.
EvictTiming TimeEviction(size_t window, std::mt19937_64* rng) {
  constexpr size_t kEvicted = 16;
  constexpr int kEvictTicks = 64;
  WsdDb db;
  MAYBMS_CHECK(db.CreateRelation("readings",
                                 Schema({{"site", ValueType::kInt},
                                         {"cond", ValueType::kString},
                                         {"temp", ValueType::kInt}}))
                   .ok());
  DeltaBatch fill;
  for (size_t i = 0; i < window; ++i) fill.Insert("readings", MakeReading(rng));
  MAYBMS_CHECK(db.ApplyDelta(fill).ok());
  std::vector<double> ns;
  for (int tick = 0; tick < kEvictTicks; ++tick) {
    DeltaBatch insert;
    for (size_t i = 0; i < kEvicted; ++i) {
      insert.Insert("readings", MakeReading(rng));
    }
    MAYBMS_CHECK(db.ApplyDelta(insert).ok());
    DeltaBatch evict;
    evict.EvictOldest("readings", kEvicted);
    Timer t;
    auto effects = db.ApplyDelta(evict);
    ns.push_back(t.Seconds() * 1e9);
    MAYBMS_CHECK(effects.ok() && effects->tuples_evicted == kEvicted);
  }
  std::sort(ns.begin(), ns.end());
  return {ns[ns.size() / 2], db.component_slot_count(), db.component_span()};
}

/// A reading shaped like the durable stream's: a certain site, a
/// three-way condition or-set and a two-way temperature or-set.
std::vector<CellSpec> MakeStreamReading(std::mt19937_64* rng) {
  static const double kCondProbs[][3] = {
      {0.5, 0.3, 0.2}, {0.6, 0.3, 0.1}, {0.2, 0.2, 0.6}, {0.1, 0.7, 0.2}};
  static const double kTempProbs[][2] = {{0.25, 0.75}, {0.5, 0.5}, {0.9, 0.1}};
  auto below = [&](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(*rng);
  };
  const auto site = static_cast<int64_t>(below(kSites));
  const size_t c = below(3);
  const double* cp = kCondProbs[below(4)];
  const int t0 = kTemps[below(4)];
  const int t1 = t0 + 1 + static_cast<int>(below(5));
  const double* tp = kTempProbs[below(3)];
  std::vector<Alternative> cond, temp;
  for (size_t k = 0; k < 3; ++k) {
    cond.push_back({Value::String(kConditions[(c + k) % 3]), cp[k]});
  }
  temp.push_back({Value::Int(t0), tp[0]});
  temp.push_back({Value::Int(t1), tp[1]});
  return {CellSpec::Certain(Value::Int(site)), CellSpec::OrSet(std::move(cond)),
          CellSpec::OrSet(std::move(temp))};
}

/// One write tick of the stream: the 16 oldest readings out, 16 in.
void StreamTick(sql::Session* session, std::mt19937_64* rng) {
  DeltaBatch tick;
  tick.EvictOldest("readings", 16);
  for (int i = 0; i < 16; ++i) {
    tick.Insert("readings", MakeStreamReading(rng));
  }
  auto applied = session->ApplyDelta(tick);
  MAYBMS_CHECK(applied.ok()) << applied.status().ToString();
}

struct ReadShape {
  const char* key;
  const char* sql;
};

const ReadShape kReadShapes[] = {
    {"point", "SELECT site, PROB() FROM readings WHERE site = 20"},
    {"range",
     "SELECT site, PROB() FROM readings WHERE site >= 20 AND site < 28 AND "
     "cond = 'rain'"},
    {"esum", "SELECT ESUM(temp) FROM readings WHERE site < 36"},
    {"ecount",
     "SELECT ECOUNT() FROM readings WHERE cond = 'snow' AND temp > 4"},
    {"selfjoin",
     "SELECT a.site, APPROX CONF(0.05, 0.0001) FROM readings a, readings b "
     "WHERE a.site = b.site AND a.site = 20 AND a.cond = 'rain' AND "
     "a.temp > 12 AND b.cond = 'snow' AND b.temp > 12"},
};

struct ShapeTiming {
  double median_ns = 0.0;
  uint64_t visited = 0;   ///< first rep's Normalize component visits
  uint64_t released = 0;  ///< first rep's unreachable components dropped
};

/// Times one read shape over a fresh `window`-reading stream: every rep
/// runs a write tick, then the read. The database each rep sees depends
/// only on the window, the shape and the rep, so the first rep's counters
/// are the same at every scale.
ShapeTiming TimeReadShape(size_t window, size_t shape, int reps) {
  std::mt19937_64 rng(1000 * window + shape);
  sql::Session session;
  MAYBMS_CHECK(session
                   .Execute("CREATE TABLE readings (site INT, cond TEXT, "
                            "temp INT)")
                   .ok());
  DeltaBatch fill;
  for (size_t i = 0; i < window; ++i) {
    fill.Insert("readings", MakeStreamReading(&rng));
  }
  MAYBMS_CHECK(session.ApplyDelta(fill).ok());
  StreamTick(&session, &rng);  // a warm read, as in a running stream
  MAYBMS_CHECK(session.Execute(kReadShapes[shape].sql).ok());
  ShapeTiming out;
  std::vector<double> ns;
  for (int rep = 0; rep < reps; ++rep) {
    StreamTick(&session, &rng);
    const uint64_t visited = NormalizeComponentsVisitedTotal();
    const uint64_t released = NormalizeComponentsReleasedTotal();
    Timer t;
    auto r = session.Execute(kReadShapes[shape].sql);
    ns.push_back(t.Seconds() * 1e9);
    MAYBMS_CHECK(r.ok()) << r.status().ToString();
    if (rep == 0) {
      out.visited = NormalizeComponentsVisitedTotal() - visited;
      out.released = NormalizeComponentsReleasedTotal() - released;
    }
  }
  std::sort(ns.begin(), ns.end());
  out.median_ns = ns[ns.size() / 2];
  return out;
}

/// Components referenced by the readings at site 20: what the point
/// read's answer tuples carry, for comparison with its visit counter.
size_t PointAnswerComponents(size_t window) {
  std::mt19937_64 rng(1000 * window);  // the point shape's stream
  sql::Session session;
  MAYBMS_CHECK(session
                   .Execute("CREATE TABLE readings (site INT, cond TEXT, "
                            "temp INT)")
                   .ok());
  DeltaBatch fill;
  for (size_t i = 0; i < window; ++i) {
    fill.Insert("readings", MakeStreamReading(&rng));
  }
  MAYBMS_CHECK(session.ApplyDelta(fill).ok());
  StreamTick(&session, &rng);
  StreamTick(&session, &rng);
  size_t refs = 0;
  for (const WsdTuple& t :
       session.db().GetRelation("readings").value()->tuples()) {
    if (!(t.cells[0].value() == Value::Int(20))) continue;
    for (const Cell& c : t.cells) refs += c.is_ref() ? 1 : 0;
  }
  return refs;
}

}  // namespace

int main() {
  const size_t window = std::max<size_t>(Scaled(1024), 48);
  const size_t batch = std::max<size_t>(window / 16, 4);
  const int ticks = 8;

  printf("MayBMS streaming benchmark: window %zu, %zu events/tick, "
         "%d ticks\n\n",
         window, batch, ticks);

  sql::Session session;
  Status create =
      session.Execute("CREATE TABLE readings (site INT, cond TEXT, temp INT)")
          .status();
  MAYBMS_CHECK(create.ok()) << create.ToString();

  std::mt19937_64 rng(42);
  {
    DeltaBatch fill;
    for (size_t i = 0; i < window; ++i) {
      fill.Insert("readings", MakeReading(&rng));
    }
    auto filled = session.ApplyDelta(fill);
    MAYBMS_CHECK(filled.ok()) << filled.status().ToString();
  }

  ConfidenceOptions incr = session.options().conf;
  incr.cache = session.conf_cache();
  MAYBMS_CHECK(incr.cache != nullptr);
  ConfidenceOptions full = session.options().conf;
  full.cache = nullptr;

  // Warm tick: populate the cache so measured ticks see the steady
  // state (per tick, only the delta-dirtied clusters miss).
  {
    auto warm = ConfTable(session.db(), "readings", incr);
    MAYBMS_CHECK(warm.ok()) << warm.status().ToString();
  }

  double ingest_s = 0.0, incr_s = 0.0, full_s = 0.0;
  double esum_incr_s = 0.0, esum_full_s = 0.0;
  size_t events = 0;
  for (int tick = 0; tick < ticks; ++tick) {
    DeltaBatch delta;
    delta.EvictOldest("readings", batch);
    for (size_t i = 0; i < batch; ++i) {
      delta.Insert("readings", MakeReading(&rng));
    }
    Timer ingest;
    auto effects = session.ApplyDelta(delta);
    ingest_s += ingest.Seconds();
    MAYBMS_CHECK(effects.ok()) << effects.status().ToString();
    MAYBMS_CHECK(effects->tuples_inserted == batch &&
                 effects->tuples_evicted == batch);
    events += batch;

    Timer t_incr;
    auto inc = ConfTable(session.db(), "readings", incr);
    incr_s += t_incr.Seconds();
    MAYBMS_CHECK(inc.ok()) << inc.status().ToString();

    Timer t_full;
    auto ful = ConfTable(session.db(), "readings", full);
    full_s += t_full.Seconds();
    MAYBMS_CHECK(ful.ok()) << ful.status().ToString();

    // The gate is exactness, not closeness: cached combines replay the
    // identical float-op sequence a fresh scan runs.
    MAYBMS_CHECK(inc->ToString() == ful->ToString())
        << "incremental CONF diverged from full recompute at tick " << tick;

    Timer t_esi;
    auto esum_inc = ExpectedSum(session.db(), "readings", "temp", incr);
    esum_incr_s += t_esi.Seconds();
    Timer t_esf;
    auto esum_ful = ExpectedSum(session.db(), "readings", "temp", full);
    esum_full_s += t_esf.Seconds();
    MAYBMS_CHECK(esum_inc.ok() && esum_ful.ok());
    MAYBMS_CHECK(*esum_inc == *esum_ful)
        << "incremental ESUM diverged at tick " << tick;
  }

  const MaterializedConf::Stats cache = session.conf_cache()->GetStats();
  MAYBMS_CHECK(cache.hits > 0) << "cache never hit: keys unstable?";

  const double conf_speedup = full_s / std::max(incr_s, 1e-12);
  const double esum_speedup = esum_full_s / std::max(esum_incr_s, 1e-12);
  const double per_query = 1.0 / static_cast<double>(ticks);
  Table table({"metric", "value"});
  table.AddRow({"window", std::to_string(window)});
  table.AddRow({"events ingested", std::to_string(events)});
  table.AddRow(
      {"ingest rate", StrFormat("%.0f events/s", events / ingest_s)});
  table.AddRow({"CONF incremental", StrFormat("%.2f ms", incr_s * per_query * 1e3)});
  table.AddRow({"CONF full recompute", StrFormat("%.2f ms", full_s * per_query * 1e3)});
  table.AddRow({"CONF speedup", StrFormat("%.1fx", conf_speedup)});
  table.AddRow({"ESUM incremental", StrFormat("%.3f ms", esum_incr_s * per_query * 1e3)});
  table.AddRow({"ESUM full recompute", StrFormat("%.3f ms", esum_full_s * per_query * 1e3)});
  table.AddRow({"ESUM speedup", StrFormat("%.1fx", esum_speedup)});
  table.AddRow({"cache hits/misses", std::to_string(cache.hits) + "/" +
                                         std::to_string(cache.misses)});

  const EvictTiming small = TimeEviction(1024, &rng);
  const EvictTiming large = TimeEviction(16384, &rng);
  table.AddRow({"evict 16 @ window 1024",
                StrFormat("%.1f us", small.median_ns / 1e3)});
  table.AddRow({"evict 16 @ window 16384",
                StrFormat("%.1f us", large.median_ns / 1e3)});
  table.AddRow({"component ids allocated @ 16384",
                std::to_string(large.slot_count)});
  table.AddRow({"component id span stored @ 16384",
                std::to_string(large.span)});
  const int reps = static_cast<int>(std::max<size_t>(3, Scaled(15)));
  std::vector<std::pair<std::string, ShapeTiming>> shapes;
  for (size_t w : {size_t{1024}, size_t{4096}}) {
    for (size_t k = 0; k < std::size(kReadShapes); ++k) {
      const ShapeTiming st = TimeReadShape(w, k, reps);
      const std::string key =
          StrFormat("%s_window%zu", kReadShapes[k].key, w);
      table.AddRow({"read " + key,
                    StrFormat("%.2f ms, normalize visits %llu, released %llu",
                              st.median_ns / 1e6,
                              static_cast<unsigned long long>(st.visited),
                              static_cast<unsigned long long>(st.released))});
      shapes.emplace_back(key, st);
    }
    table.AddRow({StrFormat("point read answer components @ %zu", w),
                  std::to_string(PointAnswerComponents(w))});
  }
  table.Print();

  BenchJson json("streaming");
  for (const auto& [key, st] : shapes) {
    json.Add("streaming_read_" + key + "_ns", st.median_ns);
    json.AddCount("streaming_read_" + key + "_normalize_visits",
                  static_cast<double>(st.visited));
  }
  json.Add("streaming_ingest_ns_per_event", ingest_s * 1e9 / events);
  json.Add("streaming_conf_incremental_ns", incr_s * per_query * 1e9,
           conf_speedup);
  json.Add("streaming_conf_full_ns", full_s * per_query * 1e9);
  json.Add("streaming_esum_incremental_ns", esum_incr_s * per_query * 1e9,
           esum_speedup);
  json.Add("streaming_evict16_window1024_ns", small.median_ns);
  json.Add("streaming_evict16_window16384_ns", large.median_ns);
  // A count, not a time: gated the same way, so a leak of retired ids
  // back into the store fails the regression gate.
  json.Add("streaming_evict_window16384_component_span",
           static_cast<double>(large.span));
  // The floor is checked only after the table and the JSON are out, so
  // a run that misses it still leaves its numbers behind. Below ~512
  // tuples fixed per-query costs (cluster-index build, final merge)
  // dominate and the ratio is noise — the smoke run only checks that the
  // bench executes and stays exact.
  json.Write();
  fflush(stdout);  // the table survives an abort below, even into a file
  if (window >= 512) {
    MAYBMS_CHECK(conf_speedup >= 5.0)
        << "incremental CONF only " << conf_speedup
        << "x faster than full recompute (need >= 5x)";
  }
  return 0;
}
