// census_serve: 5,000 cleaned census records kept resident and served by
// an in-process server::Server with 2 workers. SAVE attaches the WAL, so
// every write is fsynced. 2 client connections, each a closed loop, send
// 90% reads from the census read family and 10% INSERTs with or-set
// cells; every write publishes a new catalog version and invalidates the
// result cache.
#include <thread>

#include "census.h"
#include "common.h"
#include "common/string_util.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/shared_catalog.h"
#include "sql/parser.h"

namespace wsdbench {

using namespace maybms;

namespace {

constexpr size_t kRecords = 5000;
constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
constexpr double kWriteFraction = 0.1;
/// Inserts logged after the final checkpoint.
constexpr int kRecoverInserts = 64;

/// What one client thread measured.
struct ClientStats {
  std::vector<double> read_ms, write_ms, wait_ms;
  uint64_t attempted = 0, failed = 0, completed = 0, acked_inserts = 0;
  uint64_t compared = 0, mismatches = 0;
  std::string first_error;
};

}  // namespace

Status RunCensusServe(const RunArgs& args, RunOutput* out) {
  CountingEnv env;
  const std::string snap = args.workdir + "/serve.wsd";
  out->config["records"] = std::to_string(kRecords);
  out->config["clients"] = std::to_string(kClients);
  out->config["server_workers"] = std::to_string(kWorkers);
  out->config["write_fraction"] = StrFormat("%g", kWriteFraction);

  // --- setup: build, publish, SAVE (attaching the WAL), serve, connect --------
  std::unique_ptr<server::SharedCatalog> catalog;
  std::unique_ptr<server::Server> srv;
  std::vector<server::Client> clients;
  uint64_t flat_bytes = 0;
  auto teardown = [&] {
    clients.clear();
    if (srv) srv->Stop();
    srv.reset();
  };
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    teardown();
    catalog.reset();
    RemoveSnapshot(snap);
    const int64_t t0 = NowNs();
    MAYBMS_ASSIGN_OR_RETURN(WsdDb db,
                            BuildCleanCensus(kRecords, args.seed, &flat_bytes));
    catalog = std::make_unique<server::SharedCatalog>(std::move(db));
    catalog->setup_session()->set_env(&env);
    {
      ScopedSpan span("storage.snapshot.save");
      MAYBMS_RETURN_IF_ERROR(catalog->setup_session()
                                 ->Execute("SAVE DATABASE '" + snap + "'")
                                 .status());
    }
    catalog->Publish();
    server::ServerOptions opts;
    opts.workers = kWorkers;
    MAYBMS_ASSIGN_OR_RETURN(srv, server::Server::Start(catalog.get(), opts));
    for (size_t c = 0; c < kClients; ++c) {
      MAYBMS_ASSIGN_OR_RETURN(server::Client client,
                              server::Client::Connect(srv->port()));
      clients.push_back(std::move(client));
    }
    out->samples["setup_s"].push_back(MsBetween(t0, NowNs()) / 1e3);
  }
  out->scalars["space_ratio"] =
      static_cast<double>(FileBytes(snap)) / static_cast<double>(flat_bytes);
  const size_t initial_rows =
      catalog->SnapshotCopy().GetRelation("census").value()->NumTuples();

  // --- the measured window ------------------------------------------------------
  const CensusFamily family(kRecords, args.seed);
  std::atomic<int64_t> next_pernum{static_cast<int64_t>(kRecords) + 1};
  LayerCounters counters;
  WriteMeter meter;
  ShadowDb shadow;
  std::mutex write_mu;  // traced writes: commit + shadow apply in one order
  uint64_t acked_inserts = 0;
  std::string first_error;

  // One client's closed loop. Traced: reads are re-driven in-process
  // after their round trip, and writes go straight to
  // SharedCatalog::ExecuteWrite so the commit is timed on its own.
  auto client_loop = [&](size_t c, int64_t deadline, bool traced,
                         uint64_t phase, ClientStats* st) {
    const uint64_t stream = args.seed * 1000003 + 11 + c + 7 * phase;
    Rng rng(stream);
    Deck kinds(CensusFamily::kSlots, stream * 6007 + 5);
    Deck writes(static_cast<size_t>(1 / kWriteFraction), stream * 7877 + 3);
    sql::Session redrive;
    server::Client& client = clients[c];
    while (NowNs() < deadline) {
      const bool is_write = writes.Next() == 0;
      const std::string sql =
          is_write ? family.Insert(&rng, next_pernum.fetch_add(1))
                   : family.NextRead(&rng, kinds.Next()).sql;
      ++st->attempted;
      if (traced && is_write) {
        Result<sql::Statement> stmt = sql::ParseStatement(sql);
        std::lock_guard<std::mutex> lock(write_mu);
        const CountingEnv::Counters before = env.Snapshot();
        const uint64_t records_before =
            catalog->setup_session()->wal_record_count();
        const int64_t t0 = NowNs();
        Result<sql::StatementResult> r = Status::Internal("not run");
        if (stmt.ok()) {
          RequestScope request;
          ScopedSpan span("server.catalog.commit");
          r = catalog->ExecuteWrite(*stmt);
        } else {
          r = stmt.status();
        }
        const double ms = MsBetween(t0, NowNs());
        if (!r.ok()) {
          ++st->failed;
          if (st->first_error.empty()) st->first_error = r.status().ToString();
          continue;
        }
        ++st->completed;
        ++st->acked_inserts;
        st->write_ms.push_back(ms);
        meter.Add(before, env.Snapshot(), sql.size());
        if (catalog->setup_session()->wal_record_count() <= records_before) {
          ++meter.checkpoints;
          meter.checkpoint_ms.push_back(ms);
        }
        Status applied = shadow.Apply(sql);
        if (!applied.ok()) {
          ++st->failed;
          if (st->first_error.empty()) st->first_error = applied.ToString();
        }
        continue;
      }
      const uint64_t version = catalog->version();
      const int64_t t0 = NowNs();
      Result<server::Response> resp = Status::Internal("not run");
      {
        RequestScope request;
        ScopedSpan span("server.roundtrip");
        resp = client.Execute(sql);
      }
      const double ms = MsBetween(t0, NowNs());
      if (!resp.ok() || !resp->ok) {
        ++st->failed;
        if (st->first_error.empty()) {
          st->first_error = resp.ok() ? resp->error : resp.status().ToString();
        }
        continue;
      }
      ++st->completed;
      if (is_write) {
        ++st->acked_inserts;
        st->write_ms.push_back(ms);
        continue;
      }
      st->read_ms.push_back(ms);
      if (!traced) continue;
      // The same read in-process, layer by layer, on the latest version.
      const int64_t i0 = NowNs();
      std::string encoded;
      bool same_version = false;
      {
        RequestScope request;
        ScopedSpan root("server.inprocess");
        {
          ScopedSpan span("server.catalog.snapshot_copy");
          redrive.db() = catalog->SnapshotCopy();
        }
        same_version = catalog->version() == version;
        Result<sql::StatementResult> r =
            RedriveSelect(&redrive, sql, &counters);
        if (!r.ok()) {
          ++st->failed;
          if (st->first_error.empty()) st->first_error = r.status().ToString();
          continue;
        }
        ScopedSpan span("server.encode");
        encoded = server::EncodeOk(server::SplitLines(r->ToDisplayString()));
      }
      st->wait_ms.push_back(ms - MsBetween(i0, NowNs()));
      if (same_version) {
        ++st->compared;
        if (encoded != server::EncodeOk(resp->lines)) ++st->mismatches;
      }
    }
  };

  uint64_t phase_id = 0;
  auto run_phase = [&](double seconds, bool traced, const char* read_key,
                       const char* write_key) {
    Tracer::Get().set_enabled(traced);
    if (traced) shadow.db = catalog->SnapshotCopy();
    std::vector<ClientStats> stats(kClients);
    const int64_t start = NowNs();
    const double cpu0 = ProcessCpuSeconds();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(client_loop, c, deadline, traced, phase_id,
                           &stats[c]);
    }
    for (auto& t : threads) t.join();
    ++phase_id;
    Tracer::Get().set_enabled(false);
    const double wall = MsBetween(start, NowNs()) / 1e3;
    out->scalars[traced ? "cpu_util_traced" : "cpu_util"] =
        (ProcessCpuSeconds() - cpu0) / wall;
    uint64_t completed = 0, compared = 0, mismatches = 0;
    for (ClientStats& s : stats) {
      auto& reads = out->samples[read_key];
      reads.insert(reads.end(), s.read_ms.begin(), s.read_ms.end());
      auto& writes = out->samples[write_key];
      writes.insert(writes.end(), s.write_ms.begin(), s.write_ms.end());
      auto& waits = out->samples["server_wait_ms"];
      waits.insert(waits.end(), s.wait_ms.begin(), s.wait_ms.end());
      out->attempted += s.attempted;
      out->failed += s.failed;
      completed += s.completed;
      acked_inserts += s.acked_inserts;
      compared += s.compared;
      mismatches += s.mismatches;
      if (first_error.empty()) first_error = s.first_error;
    }
    if (traced) {
      out->Check("redrive_equals_server", mismatches == 0,
                 StrFormat("%llu of %llu re-driven answers differ",
                           static_cast<unsigned long long>(mismatches),
                           static_cast<unsigned long long>(compared)));
      out->config["redrive_compared"] = std::to_string(compared);
    }
    return static_cast<double>(completed) / wall;
  };

  if (args.trace) {
    run_phase(args.seconds / 2, false, "untraced_read_ms", "untraced_write_ms");
    out->scalars["throughput_sps"] =
        run_phase(args.seconds / 2, true, "read_ms", "write_ms");
    counters.Export(out);
    meter.Export(out);
    shadow.Export(out);
    out->Check("shadow_delta_equals_catalog",
               shadow.db.ToString() == catalog->SnapshotCopy().ToString(),
               "WsdDb::ApplyDelta on the shadow copy diverged");
    Tracer::Get().set_enabled(true);
  } else {
    out->scalars["throughput_sps"] =
        run_phase(args.seconds, false, "read_ms", "write_ms");
  }
  const server::ServerCounters sc = srv->counters();
  const double lookups =
      static_cast<double>(sc.result_cache_hits + sc.result_cache_misses);
  out->layer["server.result_cache_hit_ratio"] =
      lookups == 0 ? 0.0 : static_cast<double>(sc.result_cache_hits) / lookups;
  out->layer["server.rejected"] =
      static_cast<double>(sc.rejected_rate_limit + sc.rejected_overload);
  teardown();
  if (!first_error.empty()) out->check_details.push_back(first_error);
  out->Check("all_responses_ok", out->failed == 0,
             StrFormat("%llu failed statements",
                       static_cast<unsigned long long>(out->failed)));

  // Checkpoint, then a fixed number of inserts, so every run leaves the
  // same depth of log to recover.
  Rng top_rng(args.seed * 31337 + 1);
  MAYBMS_ASSIGN_OR_RETURN(sql::Statement checkpoint,
                          sql::ParseStatement("CHECKPOINT"));
  MAYBMS_RETURN_IF_ERROR(catalog->ExecuteWrite(checkpoint).status());
  for (int i = 0; i < kRecoverInserts; ++i) {
    MAYBMS_ASSIGN_OR_RETURN(
        sql::Statement stmt,
        sql::ParseStatement(family.Insert(&top_rng, next_pernum.fetch_add(1))));
    MAYBMS_RETURN_IF_ERROR(catalog->ExecuteWrite(stmt).status());
    ++acked_inserts;
  }
  const WsdDb published = catalog->SnapshotCopy();
  const size_t final_rows =
      published.GetRelation("census").value()->NumTuples();
  out->Check("rows_equal_initial_plus_acked",
             final_rows == initial_rows + acked_inserts,
             StrFormat("%zu rows, expected %zu + %llu", final_rows,
                       initial_rows,
                       static_cast<unsigned long long>(acked_inserts)));

  // The workload's footprint: set-up plus the window, before the
  // benchmark's own recovery probes and checks add theirs.
  out->scalars["peak_rss_mb"] = PeakRssMb();
  // --- cold recoveries of the snapshot + WAL the run left ---------------------
  const std::string live = published.ToString();
  for (int k = 0; k < kColdProbes; ++k) {
    PauseBeforeProbe(k);
    const std::string copy = args.workdir + "/probe.wsd";
    double secs = 0;
    MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<sql::Session> probe,
                            RecoverCopy(snap, copy, /*mapped=*/false, &env,
                                        &secs));
    out->samples["recover_s"].push_back(secs);
    if (k == 0) {
      out->Check("recovered_equals_published", probe->db().ToString() == live,
                 "snapshot + WAL recovery differs from the last published "
                 "version");
    }
    probe.reset();
    RemoveSnapshot(copy);
  }
  out->layer["storage.env.errors"] = static_cast<double>(env.Snapshot().errors);
  Tracer::Get().set_enabled(false);
  catalog.reset();
  return Status::OK();
}

}  // namespace wsdbench
