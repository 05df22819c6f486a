// stream_durable: a sliding window of noisy sensor readings behind a
// durable session. Every tick inserts 16 or-set readings, retires the 16
// oldest (DELETE ... OLDEST 16) and runs one windowed read; writes are
// fsynced per statement and checkpointed every 256 log records — the
// program's default flush policy — into files on the real filesystem.
//
// The stream is one continuous run of a fixed number of ticks, set by
// --seconds: every run covers the same stream ages, so costs that grow
// with age show in full and equally in every run. Cold recoveries run
// during the stream too, so they see the same stretches of host speed as
// its reads and writes.
#include <algorithm>
#include <cmath>

#include "common.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "sql/session.h"

namespace wsdbench {

using namespace maybms;

namespace {

constexpr size_t kWindow = 1024;
constexpr size_t kBatch = 16;
constexpr int kSites = 64;
/// Ticks per second of --seconds: about the rate a 4-core machine runs
/// the stream at, so the stream takes roughly --seconds. The count is a
/// multiple of kTickQuantum.
constexpr double kTicksPerSecond = 40;
constexpr uint64_t kTickQuantum = 128;
/// Write-only ticks after the measured stream (two log records each).
/// With a stream of whole quanta, the log the run leaves always holds
/// the same 2 * kRecoverTicks records.
constexpr int kRecoverTicks = 64;
/// Recovery images are copies of the snapshot + WAL taken whenever the
/// log holds exactly 2 * kRecoverTicks records (once per checkpoint
/// interval), so every recovery replays the same depth of log. Every
/// kProbeStride-th tick, once the first image exists, one cold recovery
/// of the latest image is timed outside the tick; the same ticks probe
/// the same stream ages in every run.
constexpr uint64_t kProbeStride = 16;
/// The read of every kSampleStride-th tick, up to kMaxSampled of them, is
/// checked against the cache-off reference. The stride is odd, so the
/// sampled reads cycle through all four read kinds.
constexpr uint64_t kSampleStride = 29;
constexpr size_t kMaxSampled = 24;
/// Reads traced and untraced alternate in blocks of this many ticks (a
/// whole rotation of the read kinds) in traced runs.
constexpr uint64_t kTraceBlock = 4;
const std::string kDelete =
    "DELETE FROM readings OLDEST " + std::to_string(kBatch);

const char* const kConds[] = {"clear", "rain", "snow"};
const double kCondProbs[][3] = {
    {0.5, 0.3, 0.2}, {0.6, 0.3, 0.1}, {0.2, 0.2, 0.6}, {0.1, 0.7, 0.2}};
const int kTemps[] = {-2, 4, 11, 19};
const double kTempProbs[][2] = {{0.25, 0.75}, {0.5, 0.5}, {0.9, 0.1}};

/// The APPROX CONF read: does `site` have both a warm rain and a warm snow
/// reading? The self-join puts all of the site's warm readings into one
/// lineage cluster, beyond the exact-enumeration limit on most sites, so
/// the answer is sampled. δ is small because every run checks some of
/// these intervals against the exact confidence.
const char* const kConflict =
    "SELECT a.site, APPROX CONF(0.05, 0.0001) FROM readings a, readings b "
    "WHERE a.site = b.site AND a.site = %d AND a.cond = 'rain' AND "
    "a.temp > 12 AND b.cond = 'snow' AND b.temp > 12";

struct StreamRead {
  std::string sql;
  int conflict_site = -1;  ///< the APPROX read's site, else -1
};

/// Generates INSERT statements of noisy readings and, for the space
/// ratio, the certain relation of their first alternatives.
class ReadingGen {
 public:
  explicit ReadingGen(uint64_t seed)
      : rng_(seed),
        flat_("readings", Schema({{"site", ValueType::kInt},
                                  {"cond", ValueType::kString},
                                  {"temp", ValueType::kInt}})) {}

  std::string Insert(bool keep_flat) {
    std::string sql = "INSERT INTO readings VALUES ";
    for (size_t i = 0; i < kBatch; ++i) {
      const int site = static_cast<int>(rng_.NextBelow(kSites));
      const size_t c = rng_.NextBelow(3);
      const double* cp = kCondProbs[rng_.NextBelow(4)];
      const int t0 = kTemps[rng_.NextBelow(4)];
      const int t1 = t0 + 1 + static_cast<int>(rng_.NextBelow(5));
      const double* tp = kTempProbs[rng_.NextBelow(3)];
      sql += StrFormat(
          "%s(%d, {'%s': %g, '%s': %g, '%s': %g}, {%d: %g, %d: %g})",
          i ? ", " : "", site, kConds[c], cp[0], kConds[(c + 1) % 3], cp[1],
          kConds[(c + 2) % 3], cp[2], t0, tp[0], t1, tp[1]);
      if (keep_flat) {
        flat_.AppendUnchecked(
            {Value::Int(site), Value::String(kConds[c]), Value::Int(t0)});
      }
    }
    return sql;
  }

  /// One read of each kind with fixed constants, to warm the cache.
  static std::string WarmUp(uint64_t kind) {
    switch (kind) {
      case 0:
        return "SELECT site, PROB() FROM readings WHERE cond = 'rain'";
      case 1:
        return "SELECT ESUM(temp) FROM readings";
      case 2:
        return "SELECT ECOUNT() FROM readings WHERE cond = 'snow'";
      default:
        return StrFormat(kConflict, 0);
    }
  }

  /// The tick's windowed read; kinds rotate so each gets a quarter.
  StreamRead Read(uint64_t tick) {
    const int a = static_cast<int>(rng_.NextBelow(kSites - 16));
    switch (tick % 4) {
      case 0:
        return {StrFormat("SELECT site, PROB() FROM readings WHERE site >= %d "
                          "AND site < %d AND cond = 'rain'",
                          a, a + 8)};
      case 1:
        return {StrFormat("SELECT ESUM(temp) FROM readings WHERE site < %d",
                          a + 16)};
      case 2:
        return {StrFormat(
            "SELECT ECOUNT() FROM readings WHERE cond = 'snow' AND temp > %d",
            kTemps[a % 4])};
      default:
        return {StrFormat(kConflict, a), a};
    }
  }

  const Relation& flat() const { return flat_; }

 private:
  Rng rng_;
  Relation flat_;
};

/// Exact confidence of the APPROX read at `site`. No reading is both
/// rain and snow, so a (rain, snow) pair exists exactly when each kind
/// does, and P(R and S) = P(R) + P(S) - P(R or S), each term an exact
/// PROB() over independent readings.
Result<double> ExactConflict(sql::Session* s, int site) {
  const char* const kinds[] = {"cond = 'rain'", "cond = 'snow'",
                               "cond <> 'clear'"};
  double p[3];
  for (int i = 0; i < 3; ++i) {
    MAYBMS_ASSIGN_OR_RETURN(
        sql::StatementResult r,
        s->Execute(StrFormat("SELECT site, PROB() FROM readings WHERE site = "
                             "%d AND %s AND temp > 12",
                             site, kinds[i])));
    p[i] = r.table.NumRows() ? r.table.row(0).back().NumericValue() : 0.0;
  }
  return p[0] + p[1] - p[2];
}

/// True when the APPROX answer's interval (or its absence) agrees with
/// the exact confidence `p`.
bool IntervalContains(const Relation& approx, double p) {
  if (approx.NumRows() == 0) return p < 1e-9;
  const Tuple& row = approx.row(0);
  const size_t n = row.size();
  return approx.NumRows() == 1 && p >= row[n - 2].NumericValue() - 1e-9 &&
         p <= row[n - 1].NumericValue() + 1e-9;
}

/// The statement log the cache-off reference replays. Statements are
/// not stored: a copy of the generator regenerates them in order.
enum class Op : char { kInsert, kDelete, kRead, kFailed };
struct Sample {
  size_t op;  ///< index into the op log
  std::string rendered;
};

}  // namespace

Status RunStreamDurable(const RunArgs& args, RunOutput* out) {
  CountingEnv env;
  const std::string snap = args.workdir + "/stream.wsd";
  out->config["window_readings"] = std::to_string(kWindow);
  out->config["readings_per_write"] = std::to_string(kBatch);
  out->config["clients"] = "1";

  // --- setup: create, fill the window, save (attaching the WAL), warm up ------
  std::unique_ptr<sql::Session> s;
  std::unique_ptr<ReadingGen> gen;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    s.reset();
    RemoveSnapshot(snap);
    const int64_t t0 = NowNs();
    gen = std::make_unique<ReadingGen>(args.seed);
    s = std::make_unique<sql::Session>();
    s->set_env(&env);
    MAYBMS_RETURN_IF_ERROR(
        s->Execute("CREATE TABLE readings (site INT, cond TEXT, temp INT)")
            .status());
    for (size_t i = 0; i < kWindow / kBatch; ++i) {
      MAYBMS_RETURN_IF_ERROR(s->Execute(gen->Insert(true)).status());
    }
    {
      ScopedSpan span("storage.snapshot.save");
      MAYBMS_RETURN_IF_ERROR(
          s->Execute("SAVE DATABASE '" + snap + "'").status());
    }
    for (uint64_t k = 0; k < 4; ++k) {
      MAYBMS_RETURN_IF_ERROR(s->Execute(ReadingGen::WarmUp(k)).status());
    }
    out->samples["setup_s"].push_back(MsBetween(t0, NowNs()) / 1e3);
  }
  const std::string base = args.workdir + "/stream-base.wsd";
  MAYBMS_RETURN_IF_ERROR(CopySnapshot(snap, base));
  out->scalars["space_ratio"] =
      static_cast<double>(FileBytes(snap)) /
      static_cast<double>(gen->flat().SerializedSize());
  out->config["flush_policy"] = StrFormat(
      "fsync per acknowledged statement; auto-checkpoint every %zu records",
      s->options().durability.auto_checkpoint_records);

  // --- the measured stream ------------------------------------------------------
  const uint64_t ticks =
      kTickQuantum *
      std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(
                                args.seconds * kTicksPerSecond / kTickQuantum)));
  out->config["ticks"] = std::to_string(ticks);
  const WsdDb start_state = s->db();
  const ReadingGen start_gen = *gen;
  std::vector<Op> log;
  std::vector<Sample> samples;
  LayerCounters counters;
  WriteMeter meter;
  ShadowDb shadow;
  if (args.trace) shadow.db = s->db();
  uint64_t redrive_mismatches = 0;
  std::string first_error;
  const std::string image = args.workdir + "/image.wsd";
  bool have_image = false;
  // One cold recovery of `from` into a fresh session, timed into recover_s.
  auto recover = [&](const std::string& from)
      -> Result<std::unique_ptr<sql::Session>> {
    const std::string copy = args.workdir + "/probe.wsd";
    double secs = 0;
    MAYBMS_ASSIGN_OR_RETURN(
        std::unique_ptr<sql::Session> probe,
        RecoverCopy(from, copy, /*mapped=*/false, &env, &secs));
    out->samples["recover_s"].push_back(secs);
    return probe;
  };

  auto fail = [&](const Status& st) {
    ++out->failed;
    if (first_error.empty()) first_error = st.ToString();
  };
  auto write = [&](Op op, const std::string& sql,
                   std::vector<double>* latencies) {
    ++out->attempted;
    const uint64_t records_before = s->wal_record_count();
    const CountingEnv::Counters before = env.Snapshot();
    Result<sql::StatementResult> r = Status::Internal("not run");
    const int64_t t0 = NowNs();
    {
      RequestScope request;
      ScopedSpan root("write");
      r = s->Execute(sql);
    }
    const double ms = MsBetween(t0, NowNs());
    log.push_back(r.ok() ? op : Op::kFailed);
    if (!r.ok()) return fail(r.status());
    if (latencies == nullptr) return;
    latencies->push_back(ms);
    meter.Add(before, env.Snapshot(), sql.size());
    if (s->wal_record_count() <= records_before) {  // the log was reset
      ++meter.checkpoints;
      meter.checkpoint_ms.push_back(ms);
    }
    if (args.trace) {
      Status st = shadow.Apply(sql);
      if (!st.ok()) fail(st);
    }
  };
  auto read = [&](const std::string& sql, bool traced, bool sample,
                  std::vector<double>* latencies) {
    ++out->attempted;
    Result<sql::StatementResult> r = Status::Internal("not run");
    const int64_t t0 = NowNs();
    if (traced) {
      RequestScope request;
      ScopedSpan root("request");
      r = RedriveSelect(s.get(), sql, &counters);
    } else {
      r = s->Execute(sql);
    }
    const double ms = MsBetween(t0, NowNs());
    log.push_back(r.ok() ? Op::kRead : Op::kFailed);
    if (!r.ok()) return fail(r.status());
    latencies->push_back(ms);
    if (traced) {
      ScopedSpan check("check");
      Result<sql::StatementResult> direct = s->Execute(sql);
      if (!direct.ok() || Render(*direct) != Render(*r)) ++redrive_mismatches;
    }
    if (sample && samples.size() < kMaxSampled) {
      samples.push_back({log.size() - 1, Render(*r)});
    }
  };

  // In traced runs, blocks of kTraceBlock ticks alternate between
  // untraced and traced, so both see the same stream ages.
  std::vector<double>& read_ms = out->samples["read_ms"];
  std::vector<double>& write_ms = out->samples["write_ms"];
  std::vector<double>& untraced_read_ms = out->samples["untraced_read_ms"];
  std::vector<double>& untraced_write_ms = out->samples["untraced_write_ms"];
  const double cpu0 = ProcessCpuSeconds();
  int64_t active = 0;
  for (uint64_t tick = 0; tick < ticks; ++tick) {
    const bool traced = args.trace && (tick / kTraceBlock) % 2 == 1;
    const bool split = args.trace && !traced;
    Tracer::Get().set_enabled(traced);
    const int64_t t0 = NowNs();
    std::vector<double>* writes = split ? &untraced_write_ms : &write_ms;
    write(Op::kInsert, gen->Insert(false), writes);
    write(Op::kDelete, kDelete, writes);
    read(gen->Read(tick).sql, traced, tick % kSampleStride == 0,
         split ? &untraced_read_ms : &read_ms);
    active += NowNs() - t0;
    if (s->wal_record_count() == 2 * kRecoverTicks) {
      MAYBMS_RETURN_IF_ERROR(CopySnapshot(snap, image));
      have_image = true;
    }
    if (have_image && (tick + 1) % kProbeStride == 0) {
      Tracer::Get().set_enabled(args.trace);
      MAYBMS_RETURN_IF_ERROR(recover(image).status());
      RemoveSnapshot(args.workdir + "/probe.wsd");
    }
  }
  Tracer::Get().set_enabled(false);
  const double secs = static_cast<double>(active) / 1e9;
  out->scalars["throughput_sps"] = static_cast<double>(3 * ticks) / secs;
  out->scalars["cpu_util"] = (ProcessCpuSeconds() - cpu0) / secs;
  if (args.trace) {
    counters.Export(out);
    meter.Export(out);
    shadow.Export(out);
    out->Check("shadow_delta_equals_session",
               shadow.db.ToString() == s->db().ToString(),
               "WsdDb::ApplyDelta on the shadow copy diverged");
    out->Check("redrive_equals_execute", redrive_mismatches == 0,
               StrFormat("%llu re-driven answers differ",
                         static_cast<unsigned long long>(redrive_mismatches)));
  }

  // A fixed number of write ticks, so every run leaves the same log depth
  // to recover; the recovery layers are traced in traced runs.
  for (int i = 0; i < kRecoverTicks; ++i) {
    write(Op::kInsert, gen->Insert(false), nullptr);
    write(Op::kDelete, kDelete, nullptr);
  }
  Tracer::Get().set_enabled(args.trace);
  if (!first_error.empty()) out->check_details.push_back(first_error);

  // The workload's footprint: set-up plus the window with its recovery
  // probes, before the benchmark's own checks add theirs.
  out->scalars["peak_rss_mb"] = PeakRssMb();
  out->config["component_slots_at_end"] =
      std::to_string(s->db().component_slot_count());
  out->config["live_components_at_end"] =
      std::to_string(s->db().NumLiveComponents());
  // --- one more cold recovery, of the snapshot + WAL the run left ------------
  {
    MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<sql::Session> probe,
                            recover(snap));
    out->Check("recovered_equals_live",
               probe->db().ToString() == s->db().ToString(),
               "snapshot + WAL recovery differs from the live database");
  }
  RemoveSnapshot(args.workdir + "/probe.wsd");
  out->layer["storage.env.errors"] = static_cast<double>(env.Snapshot().errors);

  // --- correctness: sampled reads vs a cache-off session replaying the log ----
  Tracer::Get().set_enabled(false);
  auto ref = std::make_unique<sql::Session>(WsdDb(start_state));
  ref->mutable_options().materialize_conf = false;
  ref->mutable_options().durability.wal_enabled = false;
  ReadingGen regen = start_gen;
  size_t mismatches = 0, next_sample = 0, reads = 0;
  size_t intervals = 0, interval_misses = 0;
  std::string detail, interval_detail;
  if (std::find(log.begin(), log.end(), Op::kFailed) != log.end()) {
    out->Check("cached_equals_cache_off", false,
               "a failed statement leaves nothing comparable to replay");
    return Status::OK();
  }
  for (size_t i = 0; i < log.size(); ++i) {
    const bool is_sample =
        next_sample < samples.size() && samples[next_sample].op == i;
    switch (log[i]) {
      case Op::kInsert:
        MAYBMS_RETURN_IF_ERROR(ref->Execute(regen.Insert(false)).status());
        break;
      case Op::kDelete:
        MAYBMS_RETURN_IF_ERROR(ref->Execute(kDelete).status());
        break;
      case Op::kRead: {
        const StreamRead read = regen.Read(reads++);
        if (!is_sample) break;
        Result<sql::StatementResult> r = ref->Execute(read.sql);
        if (!r.ok() || Render(*r) != samples[next_sample].rendered) {
          ++mismatches;
          if (detail.empty()) detail = read.sql;
        }
        ++next_sample;
        if (read.conflict_site < 0 || !r.ok()) break;
        ++intervals;
        Result<double> exact = ExactConflict(ref.get(), read.conflict_site);
        if (!exact.ok() || !IntervalContains(r->table, *exact)) {
          ++interval_misses;
          if (interval_detail.empty()) {
            interval_detail =
                exact.ok() ? StrFormat("exact %.9g vs %s", *exact,
                                       Render(*r).c_str())
                           : exact.status().ToString();
          }
        }
        break;
      }
      case Op::kFailed:
        break;
    }
  }
  const size_t compared = samples.size();
  out->Check("cached_equals_cache_off", mismatches == 0 && compared > 0,
             StrFormat("%zu of %zu sampled reads differ (first: %s)",
                       mismatches, compared, detail.c_str()));
  out->Check("approx_contains_exact", interval_misses == 0 && intervals > 0,
             StrFormat("%zu of %zu sampled APPROX intervals miss the exact "
                       "confidence (%s)",
                       interval_misses, intervals, interval_detail.c_str()));
  out->config["sampled_reads"] = std::to_string(compared);
  out->config["sampled_approx_intervals"] = std::to_string(intervals);
  return Status::OK();
}

}  // namespace wsdbench
