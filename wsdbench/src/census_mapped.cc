// census_mapped: the analyst path on data larger than the program's own
// cache. 20,000 cleaned census records are saved as a v3 snapshot and
// reopened with LOAD DATABASE ... MAPPED under a residency cap of a
// quarter of the snapshot; one closed-loop client sends the census read
// family through Session::Execute.
#include <cstdlib>

#include "census.h"
#include "common.h"
#include "common/string_util.h"
#include "core/mapped_db.h"

namespace wsdbench {

using namespace maybms;

namespace {

constexpr size_t kRecords = 20000;
constexpr size_t kMaxSampled = 24;

struct Sampled {
  CensusRead read;
  std::string rendered;
  Relation table;  ///< the APPROX CONF answer, for the containment check
};

/// Index of the row of `exact` whose leading columns equal `row`'s.
const Tuple* FindByKey(const Relation& exact, const Tuple& row, size_t key) {
  for (const Tuple& e : exact.rows()) {
    bool same = true;
    for (size_t c = 0; c < key && same; ++c) same = e[c] == row[c];
    if (same) return &e;
  }
  return nullptr;
}

/// True when every APPROX CONF interval of `approx` contains the exact
/// probability of the same tuple in `exact`.
bool IntervalsContain(const Relation& approx, const Relation& exact,
                      std::string* detail) {
  const size_t n = approx.NumCols();
  if (approx.NumRows() != exact.NumRows()) {
    *detail = StrFormat("%zu approx rows vs %zu exact rows", approx.NumRows(),
                        exact.NumRows());
    return false;
  }
  for (const Tuple& row : approx.rows()) {
    const Tuple* e = FindByKey(exact, row, n - 3);
    if (e == nullptr) {
      *detail = "approx tuple missing from the exact answer";
      return false;
    }
    const double p = e->back().NumericValue();
    const double lo = row[n - 2].NumericValue();
    const double hi = row[n - 1].NumericValue();
    if (p < lo - 1e-9 || p > hi + 1e-9) {
      *detail = StrFormat("p=%.9g outside [%.9g, %.9g]", p, lo, hi);
      return false;
    }
  }
  return true;
}

}  // namespace

Status RunCensusMapped(const RunArgs& args, RunOutput* out) {
  CountingEnv env;
  const std::string snap = args.workdir + "/census.wsd";
  out->config["records"] = std::to_string(kRecords);
  out->config["clients"] = "1";

  // --- setup: generate, clean, save v3, reopen mapped under a cap -------------
  std::unique_ptr<sql::Session> session;
  uint64_t flat_bytes = 0, snap_bytes = 0;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    session.reset();
    RemoveSnapshot(snap);
    const int64_t t0 = NowNs();
    MAYBMS_ASSIGN_OR_RETURN(WsdDb db,
                            BuildCleanCensus(kRecords, args.seed, &flat_bytes));
    {
      sql::Session build(std::move(db));
      build.set_env(&env);
      ScopedSpan span("storage.snapshot.save");
      MAYBMS_RETURN_IF_ERROR(
          build.Execute("SAVE DATABASE '" + snap + "'").status());
    }
    snap_bytes = FileBytes(snap);
    const std::string cap = std::to_string(snap_bytes / 4);
    setenv("MAYBMS_MAX_RESIDENT_BYTES", cap.c_str(), 1);
    session = std::make_unique<sql::Session>();
    session->set_env(&env);
    MAYBMS_RETURN_IF_ERROR(
        session->Execute("LOAD DATABASE '" + snap + "' MAPPED").status());
    out->samples["setup_s"].push_back(MsBetween(t0, NowNs()) / 1e3);
  }
  out->config["snapshot_bytes"] = std::to_string(snap_bytes);
  out->config["max_resident_bytes"] =
      std::to_string(session->mapped_db()->max_resident_bytes());
  out->scalars["space_ratio"] =
      static_cast<double>(snap_bytes) / static_cast<double>(flat_bytes);

  // --- the measured window ------------------------------------------------------
  const CensusFamily family(kRecords, args.seed);
  Rng rng(args.seed * 1000003 + 11);
  Deck kinds(CensusFamily::kSlots, args.seed * 6007 + 5);
  Rng sample_rng(args.seed * 7919 + 3);
  std::vector<Sampled> sampled;
  LayerCounters counters;
  uint64_t redrive_mismatches = 0, redrive_compared = 0;
  std::string first_error;

  // One phase: closed loop for `seconds`; traced phases re-drive each
  // read layer by layer and check it against Session::Execute.
  auto run_phase = [&](double seconds, bool traced,
                       std::vector<double>* latencies) {
    Tracer::Get().set_enabled(traced);
    const int64_t start = NowNs();
    const double cpu0 = ProcessCpuSeconds();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    uint64_t completed = 0;
    while (NowNs() < deadline) {
      const CensusRead read = family.NextRead(&rng, kinds.Next());
      ++out->attempted;
      Result<sql::StatementResult> r = Status::Internal("not run");
      const int64_t t0 = NowNs();
      if (traced) {
        RequestScope request;
        ScopedSpan root("request");
        r = RedriveSelect(session.get(), read.sql, &counters);
      } else {
        r = session->Execute(read.sql);
      }
      const int64_t t1 = NowNs();
      if (!r.ok()) {
        ++out->failed;
        if (first_error.empty()) first_error = r.status().ToString();
        continue;
      }
      ++completed;
      latencies->push_back(MsBetween(t0, t1));
      if (traced) {
        ScopedSpan check("check");
        Result<sql::StatementResult> direct = session->Execute(read.sql);
        ++redrive_compared;
        if (!direct.ok() || Render(*direct) != Render(*r)) {
          ++redrive_mismatches;
        }
      }
      // APPROX CONF statements are sampled more often, so that every
      // run checks a few intervals.
      const bool approx = !read.exact_sql.empty();
      if (sampled.size() < kMaxSampled &&
          sample_rng.NextBernoulli(approx ? 0.5 : 0.1)) {
        sampled.push_back({read, Render(*r), r->table});
      }
    }
    Tracer::Get().set_enabled(false);
    const double wall = MsBetween(start, NowNs()) / 1e3;
    out->scalars[traced ? "cpu_util_traced" : "cpu_util"] =
        (ProcessCpuSeconds() - cpu0) / wall;
    return static_cast<double>(completed) / wall;
  };

  if (args.trace) {
    run_phase(args.seconds / 2, false, &out->samples["untraced_read_ms"]);
    out->scalars["throughput_sps"] =
        run_phase(args.seconds / 2, true, &out->samples["read_ms"]);
    counters.Export(out);
    out->layer["core.mapped.resident_peak_mb"] =
        static_cast<double>(session->mapped_db()->peak_resident_bytes()) /
        (1024.0 * 1024.0);
    out->Check("redrive_equals_execute", redrive_mismatches == 0,
               StrFormat("%llu of %llu re-driven answers differ",
                         static_cast<unsigned long long>(redrive_mismatches),
                         static_cast<unsigned long long>(redrive_compared)));
    Tracer::Get().set_enabled(true);
  } else {
    out->scalars["throughput_sps"] =
        run_phase(args.seconds, false, &out->samples["read_ms"]);
  }
  if (!first_error.empty()) out->check_details.push_back(first_error);

  // The workload's footprint: set-up plus the window, before the
  // benchmark's own recovery probes and checks add theirs.
  out->scalars["peak_rss_mb"] = PeakRssMb();
  // --- cold probes: reopen a fresh copy mapped, then write to it ---------------
  // A write to a mapped database promotes it to resident and logs to the
  // WAL; that is the write latency a user of this workload sees.
  WriteMeter meter;
  Rng write_rng(args.seed * 104729 + 17);
  for (int k = 0; k < kColdProbes; ++k) {
    PauseBeforeProbe(k);
    const std::string copy = args.workdir + "/probe.wsd";
    double secs = 0;
    MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<sql::Session> probe,
                            RecoverCopy(snap, copy, /*mapped=*/true, &env,
                                        &secs));
    out->samples["recover_s"].push_back(secs);
    const std::string insert =
        family.Insert(&write_rng, static_cast<int64_t>(kRecords) + 1 + k);
    ++out->attempted;
    const CountingEnv::Counters before = env.Snapshot();
    const int64_t t0 = NowNs();
    Result<sql::StatementResult> w = Status::Internal("not run");
    {
      RequestScope request;
      ScopedSpan root("write");
      w = probe->Execute(insert);
    }
    const int64_t t1 = NowNs();
    if (w.ok()) {
      out->samples["write_ms"].push_back(MsBetween(t0, t1));
      meter.Add(before, env.Snapshot(), insert.size());
    } else {
      ++out->failed;
      out->check_details.push_back(w.status().ToString());
    }
    probe.reset();
    RemoveSnapshot(copy);
  }
  meter.Export(out);
  out->layer["storage.env.errors"] = static_cast<double>(env.Snapshot().errors);

  // --- correctness: sampled answers vs an eagerly loaded resident session ----
  Tracer::Get().set_enabled(false);
  const std::string eager_path = args.workdir + "/eager.wsd";
  MAYBMS_RETURN_IF_ERROR(CopySnapshot(snap, eager_path));
  sql::Session eager;
  eager.mutable_options().durability.wal_enabled = false;
  MAYBMS_RETURN_IF_ERROR(
      eager.Execute("LOAD DATABASE '" + eager_path + "'").status());
  size_t mismatches = 0, approx_checked = 0, approx_failures = 0;
  std::string detail, approx_detail;
  for (const Sampled& s : sampled) {
    if (!s.read.exact_sql.empty()) {
      Result<sql::StatementResult> exact = eager.Execute(s.read.exact_sql);
      ++approx_checked;
      std::string why;
      if (!exact.ok() || !IntervalsContain(s.table, exact->table, &why)) {
        ++approx_failures;
        if (approx_detail.empty()) {
          approx_detail = s.read.sql + ": " +
                          (exact.ok() ? why : exact.status().ToString());
        }
      }
      continue;  // the interval, not the point estimate, is the contract
    }
    Result<sql::StatementResult> r = eager.Execute(s.read.sql);
    if (!r.ok() || Render(*r) != s.rendered) {
      ++mismatches;
      if (detail.empty()) detail = s.read.sql;
    }
  }
  out->Check("mapped_equals_resident", mismatches == 0 && !sampled.empty(),
             StrFormat("%zu of %zu sampled answers differ (first: %s)",
                       mismatches, sampled.size() - approx_checked,
                       detail.c_str()));
  out->Check("approx_contains_exact", approx_failures == 0, approx_detail);
  out->config["sampled_statements"] = std::to_string(sampled.size());
  out->config["approx_statements_checked"] = std::to_string(approx_checked);
  RemoveSnapshot(eager_path);
  return Status::OK();
}

}  // namespace wsdbench
