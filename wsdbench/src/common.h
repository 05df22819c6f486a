// Shared machinery of the wsdbench binary: clocks, the in-memory span
// recorder used by traced runs, a counting Env wrapper, the raw-result
// record each workload fills in, and the re-driven read chain that times
// every layer a SELECT passes through.
//
// The benchmark never changes the engine: spans are recorded around calls
// into the engine's public functions from this directory's code only.
#ifndef WSDBENCH_COMMON_H_
#define WSDBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "sql/session.h"
#include "storage/io_env.h"

namespace wsdbench {

using maybms::Result;
using maybms::Status;

/// Monotonic nanoseconds.
int64_t NowNs();
inline double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Process high-water resident set from getrusage, in MiB.
double PeakRssMb();
/// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();

// --- tracing -----------------------------------------------------------------

/// One timed interval. `parent` is the span that was open on the same
/// thread when this one began (0 = root); `request` groups the spans of
/// one statement (0 = outside any statement).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Process-wide span recorder. Spans stay in memory and are written out
/// once, at exit. When disabled, ScopedSpan costs one atomic load.
class Tracer {
 public:
  static Tracer& Get();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  /// Tab-separated: id, parent, request, name, start_ns, end_ns.
  Status WriteTsv(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records [construction, destruction) as a span named `name` (a string
/// literal) when the tracer is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  uint64_t saved_parent_ = 0;
  bool active_ = false;
};

/// Tags every span begun on this thread while alive with a fresh
/// request id.
class RequestScope {
 public:
  RequestScope();
  ~RequestScope();

 private:
  uint64_t saved_ = 0;
};

// --- counting Env --------------------------------------------------------------

/// Env::Default() with counters: bytes appended, fsyncs (file and
/// directory) with their time, and failed calls. Each fsync is also a
/// "storage.env.fsync" span.
class CountingEnv : public maybms::Env {
 public:
  struct Counters {
    uint64_t syncs = 0;
    uint64_t sync_ns = 0;
    uint64_t bytes_appended = 0;
    uint64_t errors = 0;
  };

  CountingEnv() : base_(maybms::Env::Default()) {}

  Counters Snapshot() const;
  /// Counts a failed call (also used by the wrapped WritableFile).
  Status Note(Status st);
  void AddAppended(uint64_t n) { bytes_appended_.fetch_add(n); }
  /// Times one fsync-like call.
  Status TimedSync(const std::function<Status()>& fn);

  Result<std::unique_ptr<maybms::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::string> ReadFileToString(const std::string& path) override;
  Result<std::unique_ptr<maybms::RandomAccessImage>> MapFile(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Status SyncDir(const std::string& dir) override;
  void BackoffBeforeRetry(int attempt) override {
    base_->BackoffBeforeRetry(attempt);
  }

 private:
  maybms::Env* base_;
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> sync_ns_{0};
  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> errors_{0};
};

// --- raw results ---------------------------------------------------------------

/// Everything one run measured, written as JSON for run.py, which turns
/// samples into percentiles and spans into per-layer self times.
struct RunOutput {
  std::string workload;
  uint64_t seed = 0;
  int trace = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Named correctness checks; any false one makes the run incorrect.
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> check_details;
  /// Raw samples by name (read_ms, write_ms, setup_s, recover_s, ...).
  std::map<std::string, std::vector<double>> samples;
  /// Scalars measured directly (throughput_sps, peak_rss_mb, ...).
  std::map<std::string, double> scalars;
  /// Per-layer values computed from counters rather than spans.
  std::map<std::string, double> layer;
  /// Settings in force (thread counts, flush policy, sizes).
  std::map<std::string, std::string> config;

  /// Records a check; failed checks also count as failures.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  Status WriteJson(const std::string& path) const;
};

/// Options shared by every workload.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  ///< scratch directory on the real filesystem
  /// How many times setup runs (the median is reported); set by main
  /// per workload.
  int setup_reps = 0;
};

/// Deals 0..n-1 in a seeded random order and reshuffles after every n
/// deals, so each block of n draws has exactly the same mix. Workloads
/// draw statement kinds from decks, which keeps the mix of a run — and
/// with it the measured averages — independent of the seed.
class Deck {
 public:
  Deck(size_t n, uint64_t seed);
  size_t Next();

 private:
  maybms::Rng rng_;
  std::vector<size_t> cards_;
  size_t pos_;
};

// --- the re-driven read chain ------------------------------------------------

/// Counters the re-driven chain accumulates (shared across threads).
struct LayerCounters {
  std::atomic<uint64_t> materialize_calls{0};
  std::atomic<uint64_t> bytes_decoded{0};
  std::atomic<uint64_t> shards_kept{0};
  std::atomic<uint64_t> shards_total{0};
  std::atomic<uint64_t> lifted_input_rows{0};
  std::atomic<uint64_t> lifted_output_rows{0};
  std::atomic<uint64_t> approx_calls{0};
  std::atomic<uint64_t> approx_samples{0};
  std::atomic<uint64_t> conf_cache_hits{0};
  std::atomic<uint64_t> conf_cache_lookups{0};

  /// Writes the derived per-layer values into `out`.
  void Export(RunOutput* out) const;
};

/// Runs a SELECT the way sql::Session::RunSelect does, one public call
/// per layer, each under its own span: ParseStatement → PlanSelect →
/// Optimize → [MappedWsdDb::MaterializeForPlan] → ExecuteLifted →
/// ConfTable / ExpectedCount / ExpectedSum / PossibleTuples /
/// CertainTuples / ApproxConfTable. Uses the session's database, options
/// and confidence cache, so its answer must equal Session::Execute's.
Result<maybms::sql::StatementResult> RedriveSelect(maybms::sql::Session* s,
                                                   const std::string& sql,
                                                   LayerCounters* counters);

/// The canonical rendering two answers are compared by.
std::string Render(const maybms::sql::StatementResult& r);

// --- durable writes and recovery ----------------------------------------------

/// Env traffic attributed to acknowledged write statements: deltas of a
/// CountingEnv taken around each write (writes must not overlap).
struct WriteMeter {
  uint64_t writes = 0;
  uint64_t user_bytes = 0;  ///< statement text bytes
  CountingEnv::Counters env;
  uint64_t checkpoints = 0;
  std::vector<double> checkpoint_ms;

  void Add(const CountingEnv::Counters& before,
           const CountingEnv::Counters& after, size_t statement_bytes);
  /// storage.env.* and storage.snapshot.checkpoint* per-layer values.
  void Export(RunOutput* out) const;
};

/// The DeltaBatch equivalent to an INSERT or DELETE ... OLDEST statement,
/// built the way the session builds it.
Result<maybms::DeltaBatch> DeltaFor(const std::string& sql);

/// A copy of a session's database that every write is also applied to
/// through WsdDb::ApplyDelta ("core.delta.apply"), so the delta layer is
/// timed on its own; its state must end equal to the session's.
struct ShadowDb {
  maybms::WsdDb db;
  uint64_t applies = 0;
  uint64_t dirty_components = 0;

  Status Apply(const std::string& sql);
  void Export(RunOutput* out) const;
};

/// Cold probes of the census workloads (recoveries; on census_mapped also
/// the promoting writes) run after the window, spaced 400 ms apart: on a
/// shared machine speed shifts for a second or two at a time, and
/// back-to-back probes landed in one such stretch together.
/// stream_durable probes during its stream instead.
constexpr int kColdProbes = 15;
void PauseBeforeProbe(int k);

/// Cold recovery of what a run left: copies `snapshot` (and its WAL) to
/// `copy`, then times a fresh Session's LOAD DATABASE of the copy
/// (MAPPED when `mapped`). When the tracer is on, the layers are first
/// timed on their own: LoadWsdDb or MappedWsdDb::Open
/// ("storage.snapshot.load"), and ReadWal plus applying its records to a
/// non-durable session ("storage.wal.replay").
Result<std::unique_ptr<maybms::sql::Session>> RecoverCopy(
    const std::string& snapshot, const std::string& copy, bool mapped,
    maybms::Env* env, double* seconds);

// --- files ---------------------------------------------------------------------

/// Copies a snapshot and, when present, its WAL to `dst` (+ ".wal").
Status CopySnapshot(const std::string& src, const std::string& dst);
void RemoveSnapshot(const std::string& path);
uint64_t FileBytes(const std::string& path);

/// The workload entry points; each fills `out` and returns non-OK only
/// when the run could not be carried out at all.
Status RunCensusMapped(const RunArgs& args, RunOutput* out);
Status RunCensusServe(const RunArgs& args, RunOutput* out);
Status RunStreamDurable(const RunArgs& args, RunOutput* out);

}  // namespace wsdbench

#endif  // WSDBENCH_COMMON_H_
