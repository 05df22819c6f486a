// Experiment E1 (paper: storage efficiency of WSDs).
//
// Paper claim: a world-set of more than 2^624449 worlds over the census
// data was represented "with a space overhead of only 2% over the
// original relation". The paper's noise degree sweep replaced randomly
// picked values with or-sets.
//
// This bench sweeps the degree of incompleteness and reports the number
// of worlds (log2), the flat size of the original relation, the size of
// the decomposition, and the overhead — plus, for contrast, the utterly
// infeasible size a materialized world-set would need.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/lifted_executor.h"
#include "gen/census.h"
#include "core/mapped_db.h"
#include "core/serialize.h"
#include "sql/session.h"

using namespace maybms;
using namespace maybms::bench;

namespace {

// A world-set database in the *decomposition-heavy* regime: most cells
// live in joint components (the state WSDs take after or-set insertion
// on correlated fields, REPAIR KEY, and lifted operations — the
// paper's 10^(10^6)-worlds shape), with only a small template on top.
// `tuples` tuples of 4 fields each are covered by one `rows_per_comp`-row
// joint component apiece.
WsdDb BuildJointDb(size_t tuples, size_t rows_per_comp) {
  WsdDb db;
  Schema schema({{"site", ValueType::kString},
                 {"sensor", ValueType::kInt},
                 {"reading", ValueType::kDouble},
                 {"status", ValueType::kString}});
  Status st = db.CreateRelation("readings", schema);
  MAYBMS_CHECK(st.ok()) << st.ToString();
  Rng rng(271828);
  const char* kStatus[] = {"ok", "drift", "noisy", "dead"};
  const double uniform = 1.0 / static_cast<double>(rows_per_comp);
  for (size_t i = 0; i < tuples; ++i) {
    auto h = InsertTuple(&db, "readings",
                         {CellSpec::Pending(), CellSpec::Pending(),
                          CellSpec::Pending(), CellSpec::Pending()});
    MAYBMS_CHECK(h.ok()) << h.status().ToString();
    std::vector<std::pair<std::vector<Value>, double>> rows;
    rows.reserve(rows_per_comp);
    for (size_t r = 0; r < rows_per_comp; ++r) {
      rows.push_back(
          {{Value::String(StrFormat("site-%llu",
                                    static_cast<unsigned long long>(
                                        rng.NextBelow(64)))),
            Value::Int(static_cast<int64_t>(rng.NextBelow(1000))),
            Value::Double(static_cast<double>(rng.NextBelow(1u << 20)) / 7.0),
            Value::String(kStatus[rng.NextBelow(4)])},
           uniform});
    }
    auto cid = AddJointComponent(&db,
                                 {{*h, "site"},
                                  {*h, "sensor"},
                                  {*h, "reading"},
                                  {*h, "status"}},
                                 rows);
    MAYBMS_CHECK(cid.ok()) << cid.status().ToString();
  }
  return db;
}

struct SnapshotCase {
  std::string label;
  WsdDb db;
  std::string check_relation;
  size_t check_tuples;
};

// E1b: snapshot persistence — text ("MAYBMS-WSD 1") vs the binary
// columnar format ("MAYBMS-WSD 2"). Two regimes, several scales each:
//
//   census/N  — template-heavy: N census records, or-set noise 0.001.
//               Load cost is dominated by materializing the certain
//               template cells, which both formats must do; binary wins
//               by skipping tokenization (~3-4x).
//   joint/TxR — decomposition-heavy: T joint components of R rows × 4
//               slots over a small template. Component columns load as
//               raw slot-major arrays, so binary approaches memcpy
//               speed while text still parses every cell (>10x).
//
// JSON entries feed the CI benchmark regression gate.
void SnapshotBench(BenchJson* json) {
  printf("E1b snapshot persistence: text vs binary save/load\n");
  Table table({"world-set", "format", "bytes", "save ms", "load ms",
               "load speedup"});
  const std::string dir =
      (std::filesystem::temp_directory_path() / "maybms_bench_snapshot")
          .string();
  std::filesystem::create_directories(dir);
  std::vector<SnapshotCase> cases;
  for (size_t base : {size_t(2000), size_t(10000)}) {
    size_t records = Scaled(base);
    if (records == 0) continue;
    cases.push_back({StrFormat("census/%zu", records),
                     BuildNoisyCensus(records, /*noise_fraction=*/0.001,
                                      /*seed=*/7),
                     "census", records});
  }
  for (size_t base : {size_t(500), size_t(2500)}) {
    size_t tuples = Scaled(base);
    if (tuples == 0) continue;
    // 256 rows x 4 slots per component: the largest configuration holds
    // ~2.5M packed component cells — the biggest world-set in this bench.
    cases.push_back({StrFormat("joint/%zux256", tuples),
                     BuildJointDb(tuples, 256), "readings", tuples});
  }
  for (SnapshotCase& c : cases) {
    double save_s[2], load_s[2];
    uint64_t bytes[2];
    for (int fmt = 0; fmt < 2; ++fmt) {
      SnapshotFormat format =
          fmt == 0 ? SnapshotFormat::kText : SnapshotFormat::kBinary;
      std::string path =
          dir + (fmt == 0 ? "/snap.v1.wsd" : "/snap.v2.wsd");
      // Best of 5 for both directions: first-touch page faults for the
      // freshly allocated database are paid once per process region,
      // scheduler noise hits single shots, and the regression gate
      // wants the steady-state cost of the format, not the allocator's.
      Timer t;
      save_s[fmt] = 1e300;
      for (int rep = 0; rep < 5; ++rep) {
        t.Reset();
        // sync=false: these keys gate the serialization cost; durability
        // (fsync + rename) is measured separately in E1d.
        Status st = SaveWsdDb(c.db, path, format,
                              SaveFileOptions{nullptr, /*sync=*/false});
        double s = t.Seconds();
        MAYBMS_CHECK(st.ok()) << st.ToString();
        if (s < save_s[fmt]) save_s[fmt] = s;
      }
      bytes[fmt] = std::filesystem::file_size(path);
      load_s[fmt] = 1e300;
      for (int rep = 0; rep < 5; ++rep) {
        t.Reset();
        auto loaded = LoadWsdDb(path);
        double s = t.Seconds();
        MAYBMS_CHECK(loaded.ok()) << loaded.status().ToString();
        MAYBMS_CHECK(loaded->GetRelation(c.check_relation)
                         .value()
                         ->NumTuples() == c.check_tuples);
        if (s < load_s[fmt]) load_s[fmt] = s;
      }
      std::filesystem::remove(path);
    }
    for (int fmt = 0; fmt < 2; ++fmt) {
      const char* name = fmt == 0 ? "text" : "binary";
      table.AddRow({c.label, name,
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          bytes[fmt])),
                    StrFormat("%.1f", save_s[fmt] * 1e3),
                    StrFormat("%.1f", load_s[fmt] * 1e3),
                    fmt == 0 ? std::string("1.00")
                             : StrFormat("%.2f", load_s[0] / load_s[1])});
      json->Add(StrFormat("snapshot_save_%s_%s", name, c.label.c_str()),
                save_s[fmt] * 1e9,
                fmt == 0 ? 1.0 : save_s[0] / save_s[1]);
      json->Add(StrFormat("snapshot_load_%s_%s", name, c.label.c_str()),
                load_s[fmt] * 1e9,
                fmt == 0 ? 1.0 : load_s[0] / load_s[1]);
    }
  }
  std::filesystem::remove_all(dir);
  table.Print();
  printf("binary load reads sections as raw slot-major arrays: no\n"
         "per-cell parsing, one re-intern per distinct string (see\n"
         "docs/SNAPSHOT_FORMAT.md). The joint regime is where the\n"
         "decomposition itself carries the data and the columnar format\n"
         "pays off most.\n\n");
}

// E1c: out-of-core access — a mapped v3 snapshot vs an eager load. The
// workload is the cold-start cost of answering one selective query
// (PERNUM in the last shard) over the census WSD:
//
//   eager      — LoadWsdDb maps the file, opens it as a MappedWsdDb
//                and materializes it whole (every block plus the
//                COMP/RELS section checksums), then executes.
//   mapped     — the same reader kept open: MappedWsdDb::Open verifies
//                the few-KB head, prunes shards against the predicate,
//                and decodes one shard.
//
// The mapped database runs with the resident-cache cap at 1/4 of the
// snapshot size, so the configuration is genuinely out-of-core: the
// whole file never fits the budget. Correctness is differential — the
// scratch database must produce the same answer as the eager one.
//
// Two write entries time a durable MAPPED session (LOAD ... MAPPED of a
// fresh copy, WAL on) that takes one INSERT of a census row, median of 7
// fresh copies:
//
//   mapped_cold_insert        — the INSERT alone: a WAL append + fsync
//                               and an apply to the write overlay. The
//                               bench checks that it decodes no block and
//                               leaves the session mapped.
//   mapped_insert_then_query  — the INSERT plus the next selective SQL
//                               query (the last shard, where the new row
//                               lands), which merges the overlay in; its
//                               answer must equal an eager session's.
void OutOfCoreBench(BenchJson* json) {
  printf("E1c out-of-core: mapped snapshot vs eager load (census)\n");
  size_t records = Scaled(20000);
  if (records < 256) records = 256;
  const size_t kShards = 16;
  WsdDb db = BuildNoisyCensus(records, /*noise_fraction=*/0.001, /*seed=*/7);
  db.mutable_options().rows_per_shard = (records + kShards - 1) / kShards;

  const std::string dir =
      (std::filesystem::temp_directory_path() / "maybms_bench_oocore")
          .string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/census.v3.wsd";
  Status st = SaveWsdDb(db, path, SnapshotFormat::kBinary);
  MAYBMS_CHECK(st.ok()) << st.ToString();
  const uint64_t snap_bytes = std::filesystem::file_size(path);
  MappedDbOptions opts;
  opts.max_resident_bytes = static_cast<size_t>(snap_bytes / 4);

  // One-shard-selective plan: the last PERNUM range.
  auto plan = Plan::Select(
      Plan::Scan("census"),
      Expr::Compare(CompareOp::kGe, Expr::Column("PERNUM"),
                    Expr::Const(Value::Int(static_cast<int64_t>(
                        records - db.options().rows_per_shard)))));

  Timer t;
  // Eager cold start: full decode + execute, best of 3.
  double eager_s = 1e300;
  std::string eager_answer;
  for (int rep = 0; rep < 3; ++rep) {
    t.Reset();
    auto loaded = LoadWsdDb(path);
    MAYBMS_CHECK(loaded.ok()) << loaded.status().ToString();
    auto ans = ExecuteLifted(plan, *loaded);
    MAYBMS_CHECK(ans.ok()) << ans.status().ToString();
    double s = t.Seconds();
    if (s < eager_s) eager_s = s;
    eager_answer = ans->ToString();
  }

  // Mapped cold start: open + prune + decode one shard + execute,
  // best of 3 with a fresh map each time.
  double cold_s = 1e300;
  size_t shards_kept = 0, shards_total = 0, peak_resident = 0;
  std::string mapped_answer;
  for (int rep = 0; rep < 3; ++rep) {
    t.Reset();
    auto mapped = MappedWsdDb::Open(path, opts);
    MAYBMS_CHECK(mapped.ok()) << mapped.status().ToString();
    auto scratch = mapped->MaterializeForPlan(*plan);
    MAYBMS_CHECK(scratch.ok()) << scratch.status().ToString();
    auto ans = ExecuteLifted(plan, *scratch);
    MAYBMS_CHECK(ans.ok()) << ans.status().ToString();
    double s = t.Seconds();
    if (s < cold_s) cold_s = s;
    shards_kept = mapped->last_stats().shards_kept;
    shards_total = mapped->last_stats().shards_total;
    peak_resident = mapped->peak_resident_bytes();
    mapped_answer = ans->ToString();
  }
  MAYBMS_CHECK(mapped_answer == eager_answer)
      << "mapped answer diverged from the eager answer";

  // Warm repeats on one long-lived map (decoded shard cached).
  auto mapped = MappedWsdDb::Open(path, opts);
  MAYBMS_CHECK(mapped.ok()) << mapped.status().ToString();
  double warm_s = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    t.Reset();
    auto scratch = mapped->MaterializeForPlan(*plan);
    MAYBMS_CHECK(scratch.ok());
    auto ans = ExecuteLifted(plan, *scratch);
    MAYBMS_CHECK(ans.ok());
    double s = t.Seconds();
    if (s < warm_s) warm_s = s;
  }

  Table table({"mode", "ms", "vs eager", "shards", "resident peak"});
  table.AddRow({"eager load+query", StrFormat("%.2f", eager_s * 1e3), "1.00",
                StrFormat("%zu/%zu", shards_total, shards_total),
                FormatBytes(snap_bytes)});
  table.AddRow({"mapped cold", StrFormat("%.2f", cold_s * 1e3),
                StrFormat("%.2f", eager_s / cold_s),
                StrFormat("%zu/%zu", shards_kept, shards_total),
                FormatBytes(peak_resident)});
  table.AddRow({"mapped warm", StrFormat("%.2f", warm_s * 1e3),
                StrFormat("%.2f", eager_s / warm_s),
                StrFormat("%zu/%zu", shards_kept, shards_total),
                FormatBytes(mapped->peak_resident_bytes())});
  table.Print();
  printf("snapshot %s, resident cap %s (db is %.1fx the cap)\n\n",
         FormatBytes(snap_bytes).c_str(),
         FormatBytes(opts.max_resident_bytes).c_str(),
         static_cast<double>(snap_bytes) /
             static_cast<double>(opts.max_resident_bytes));

  // Writes: a durable MAPPED session per rep, on a fresh copy.
  const Tuple row = GenerateCensus({1, 99}).row(0);
  std::string insert = "INSERT INTO census VALUES (";
  for (size_t c = 0; c < row.size(); ++c) {
    if (c) insert += ", ";
    insert += c == 0 ? std::to_string(records + 1) : row[c].ToString();
  }
  insert += ")";
  const std::string query = StrFormat(
      "SELECT PERNUM, AGE FROM census WHERE PERNUM >= %zu",
      records - db.options().rows_per_shard);
  std::string eager_write_answer;
  {
    sql::Session eager(std::move(db));
    eager.mutable_options().durability.wal_enabled = false;
    MAYBMS_CHECK(eager.Execute(insert).ok());
    auto r = eager.Execute(query);
    MAYBMS_CHECK(r.ok()) << r.status().ToString();
    eager_write_answer = r->ToDisplayString(size_t{1} << 30);
  }
  const std::string copy = dir + "/census.copy.wsd";
  std::vector<double> insert_s, insert_query_s;
  for (int rep = 0; rep < 7; ++rep) {
    std::filesystem::copy_file(
        path, copy, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::remove(copy + ".wal");
    sql::Session s;
    MAYBMS_CHECK(s.Execute("LOAD DATABASE '" + copy + "' MAPPED").ok());
    const size_t decoded_before = s.mapped_db()->last_stats().bytes_decoded;
    t.Reset();
    auto w = s.Execute(insert);
    const double ins = t.Seconds();
    MAYBMS_CHECK(w.ok()) << w.status().ToString();
    MAYBMS_CHECK(s.is_mapped()) << "the INSERT made the session resident";
    MAYBMS_CHECK(s.mapped_db()->last_stats().bytes_decoded == decoded_before)
        << "the INSERT decoded snapshot blocks";
    t.Reset();
    auto r = s.Execute(query);
    const double q = t.Seconds();
    MAYBMS_CHECK(r.ok()) << r.status().ToString();
    MAYBMS_CHECK(s.is_mapped());
    MAYBMS_CHECK(r->ToDisplayString(size_t{1} << 30) == eager_write_answer)
        << "mapped answer after the INSERT diverged from the eager answer";
    insert_s.push_back(ins);
    insert_query_s.push_back(ins + q);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  printf("mapped writes: cold INSERT %.3f ms, INSERT + query %.3f ms "
         "(median of %zu)\n\n",
         median(insert_s) * 1e3, median(insert_query_s) * 1e3,
         insert_s.size());

  json->Add("oocore_eager_cold_query", eager_s * 1e9, 1.0);
  json->Add("oocore_mapped_cold_query", cold_s * 1e9, eager_s / cold_s);
  json->Add("oocore_mapped_warm_query", warm_s * 1e9, eager_s / warm_s);
  json->Add("oocore_mapped_cold_insert", median(insert_s) * 1e9);
  json->Add("oocore_mapped_insert_then_query", median(insert_query_s) * 1e9);
  std::filesystem::remove_all(dir);
}

// E1d: durability — what crash safety costs. Three numbers:
//
//   wal_append_statement       — per-statement latency of a logged
//                                INSERT (WAL frame + fsync before apply).
//   durability_recover_replay  — LOAD DATABASE replaying a K-statement
//                                log over the last snapshot.
//   durability_recover_clean   — LOAD DATABASE of the checkpointed
//                                snapshot (empty log), same final state.
//
// The replay/clean pair brackets the recovery-time trade the checkpoint
// threshold tunes: a longer log amortizes snapshot writes but pays at
// recovery.
void DurabilityBench(BenchJson* json) {
  printf("E1d durability: WAL append latency and recovery replay\n");
  const std::string dir =
      (std::filesystem::temp_directory_path() / "maybms_bench_wal").string();
  std::filesystem::create_directories(dir);
  const std::string db_path = dir + "/bench.wsd";
  size_t k = Scaled(200);
  if (k < 16) k = 16;

  sql::Session s;
  // No auto-checkpoint: the log must hold all K statements below.
  s.mutable_options().durability.auto_checkpoint_records = 0;
  MAYBMS_CHECK(s.Execute("CREATE TABLE t (x INT, w DOUBLE)").ok());
  auto saved = s.Execute("SAVE DATABASE '" + db_path + "'");
  MAYBMS_CHECK(saved.ok()) << saved.status().ToString();

  Timer t;
  for (size_t i = 0; i < k; ++i) {
    auto r = s.Execute(
        StrFormat("INSERT INTO t VALUES (%zu, 1.5)", i));
    MAYBMS_CHECK(r.ok()) << r.status().ToString();
  }
  const double append_s = t.Seconds();

  // Recovery with a K-statement log to replay, best of 3 (LOAD leaves
  // the snapshot + log untouched, so repeats see the same work).
  double replay_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    sql::Session r;
    t.Reset();
    auto loaded = r.Execute("LOAD DATABASE '" + db_path + "'");
    double sec = t.Seconds();
    MAYBMS_CHECK(loaded.ok()) << loaded.status().ToString();
    MAYBMS_CHECK(r.wal_record_count() == k);
    if (sec < replay_s) replay_s = sec;
  }

  // Checkpoint folds the log; recovery is now a pure snapshot load.
  MAYBMS_CHECK(s.Execute("CHECKPOINT").ok());
  double clean_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    sql::Session r;
    t.Reset();
    auto loaded = r.Execute("LOAD DATABASE '" + db_path + "'");
    double sec = t.Seconds();
    MAYBMS_CHECK(loaded.ok()) << loaded.status().ToString();
    MAYBMS_CHECK(r.wal_record_count() == 0);
    if (sec < clean_s) clean_s = sec;
  }

  Table table({"metric", "value"});
  table.AddRow({"logged INSERT (frame+fsync+apply)",
                StrFormat("%.1f us/stmt", append_s / k * 1e6)});
  table.AddRow({StrFormat("recover: replay %zu-stmt log", k),
                StrFormat("%.2f ms", replay_s * 1e3)});
  table.AddRow({"recover: checkpointed snapshot",
                StrFormat("%.2f ms", clean_s * 1e3)});
  table.Print();
  printf("every logged statement is fsynced before it applies; CHECKPOINT\n"
         "trades one snapshot rewrite for replay-free recovery.\n\n");

  json->Add("wal_append_statement", append_s / k * 1e9, 1.0);
  json->Add("durability_recover_replay", replay_s * 1e9, 1.0);
  json->Add("durability_recover_clean", clean_s * 1e9,
            replay_s / clean_s);
  std::filesystem::remove_all(dir);
}

}  // namespace

int main() {
  BenchJson json("storage");
  size_t records = Scaled(50000);
  constexpr uint64_t kSeed = 1;
  printf("E1 storage: WSD space overhead vs noise degree "
         "(census %zu records x 50 attributes)\n",
         records);
  // Interned size of the certain baseline relation; depends only on
  // (records, seed), so compute it once for every configuration below.
  uint64_t interned_flat = 0;
  {
    Catalog cat;
    Status st = cat.Create(GenerateCensus({records, kSeed}));
    MAYBMS_CHECK(st.ok());
    interned_flat = cat.Get("census").value()->InternedSize();
  }
  printf("paper reference point: >2^624449 worlds at ~2%% overhead; the\n"
         "paper's degrees correspond to roughly 0.005%%..0.1%% of cells.\n\n");

  // Binary or-sets (as in the paper's world-count arithmetic) and the
  // default 2..4-alternative mix.
  for (size_t max_alts : {size_t(2), size_t(4)}) {
    printf("or-set size: %zu alternatives%s\n", max_alts,
           max_alts == 2 ? " (binary, as in the paper's world count)" : "");
    // Two size models per configuration: the paper's logical flat
    // serialization, and the interned columnar footprint the engine
    // actually holds in memory (packed 16-byte cells + each distinct
    // string stored once in the value pool).
    Table table({"noise%", "or-set cells", "log2(worlds)", "flat bytes",
                 "wsd bytes", "overhead%", "interned flat", "interned wsd",
                 "int-ovh%", "naive worlds x flat"});
    for (double noise : {0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.01}) {
      uint64_t flat = 0;
      NoiseStats stats;
      Timer t;
      WsdDb db = BuildNoisyCensus(records, noise, kSeed, &flat, &stats,
                                  /*alternatives_max=*/max_alts,
                                  /*wild_fraction=*/0.0);
      (void)t;
      uint64_t wsd = db.SerializedSize();
      uint64_t interned_wsd = db.InternedSize();
      double overhead =
          100.0 * (static_cast<double>(wsd) / static_cast<double>(flat) - 1.0);
      double interned_overhead =
          100.0 * (static_cast<double>(interned_wsd) /
                       static_cast<double>(interned_flat) -
                   1.0);
      // A materialized world-set would need |worlds| x flat bytes.
      double naive_log10 =
          stats.log2_worlds * std::log10(2.0) +
          std::log10(static_cast<double>(flat));
      table.AddRow(
          {StrFormat("%.3f", noise * 100),
           StrFormat("%zu", stats.cells_noised),
           StrFormat("%.0f", stats.log2_worlds),
           StrFormat("%llu", static_cast<unsigned long long>(flat)),
           StrFormat("%llu", static_cast<unsigned long long>(wsd)),
           StrFormat("%.2f", overhead),
           StrFormat("%llu", static_cast<unsigned long long>(interned_flat)),
           StrFormat("%llu", static_cast<unsigned long long>(interned_wsd)),
           StrFormat("%.2f", interned_overhead),
           StrFormat("~10^%.0f bytes", naive_log10)});
    }
    table.Print();
    printf("\n");
  }
  printf("shape check vs paper: overhead grows linearly with the noise\n"
         "degree and stays in the low percent range at the paper's\n"
         "degrees, while the represented world-set grows exponentially.\n"
         "The interned columns show the engine's actual in-memory\n"
         "footprint (fixed 16-byte packed cells; every distinct string\n"
         "stored once) — the overhead ratio stays in the same low-percent\n"
         "band, so compactness survives the columnar representation.\n\n");
  SnapshotBench(&json);
  OutOfCoreBench(&json);
  DurabilityBench(&json);
  return 0;
}
