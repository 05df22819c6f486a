#include "common.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "common/string_util.h"
#include "core/approx_conf.h"
#include "core/confidence.h"
#include "core/delta.h"
#include "core/lifted_executor.h"
#include "core/materialized_conf.h"
#include "core/mapped_db.h"
#include "core/serialize.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "storage/wal.h"

namespace wsdbench {

namespace fs = std::filesystem;
using namespace maybms;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// --- tracing -----------------------------------------------------------------

namespace {
thread_local uint64_t tl_parent = 0;
thread_local uint64_t tl_request = 0;
std::atomic<uint64_t> g_next_request{0};
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

Status Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  for (const Span& s : spans_) {
    out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

ScopedSpan::ScopedSpan(const char* name) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  active_ = true;
  span_.id = t.NextId();
  span_.parent = tl_parent;
  span_.request = tl_request;
  span_.name = name;
  saved_parent_ = tl_parent;
  tl_parent = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  tl_parent = saved_parent_;
  Tracer::Get().Record(span_);
}

RequestScope::RequestScope() : saved_(tl_request) {
  tl_request = g_next_request.fetch_add(1) + 1;
}

RequestScope::~RequestScope() { tl_request = saved_; }

// --- counting Env --------------------------------------------------------------

namespace {

class CountingFile : public WritableFile {
 public:
  CountingFile(CountingEnv* env, std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}
  Status Append(std::string_view data) override {
    Status st = env_->Note(base_->Append(data));
    if (st.ok()) env_->AddAppended(data.size());
    return st;
  }
  Status Sync() override {
    return env_->TimedSync([&] { return base_->Sync(); });
  }
  Status Close() override { return env_->Note(base_->Close()); }

 private:
  CountingEnv* env_;
  std::unique_ptr<WritableFile> base_;
};

}  // namespace

CountingEnv::Counters CountingEnv::Snapshot() const {
  Counters c;
  c.syncs = syncs_.load();
  c.sync_ns = sync_ns_.load();
  c.bytes_appended = bytes_appended_.load();
  c.errors = errors_.load();
  return c;
}

Status CountingEnv::Note(Status st) {
  if (!st.ok()) errors_.fetch_add(1);
  return st;
}

Status CountingEnv::TimedSync(const std::function<Status()>& fn) {
  ScopedSpan span("storage.env.fsync");
  const int64_t t0 = NowNs();
  Status st = fn();
  sync_ns_.fetch_add(static_cast<uint64_t>(NowNs() - t0));
  syncs_.fetch_add(1);
  return Note(st);
}

Result<std::unique_ptr<WritableFile>> CountingEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  Result<std::unique_ptr<WritableFile>> f =
      base_->NewWritableFile(path, truncate);
  if (!f.ok()) {
    errors_.fetch_add(1);
    return f.status();
  }
  return std::unique_ptr<WritableFile>(
      std::make_unique<CountingFile>(this, std::move(*f)));
}

Result<std::string> CountingEnv::ReadFileToString(const std::string& path) {
  Result<std::string> r = base_->ReadFileToString(path);
  // A missing file is an expected probe (e.g. no WAL yet), not an error.
  if (!r.ok() && r.status().code() != StatusCode::kNotFound) {
    errors_.fetch_add(1);
  }
  return r;
}

Result<std::unique_ptr<RandomAccessImage>> CountingEnv::MapFile(
    const std::string& path) {
  Result<std::unique_ptr<RandomAccessImage>> r = base_->MapFile(path);
  if (!r.ok()) errors_.fetch_add(1);
  return r;
}

bool CountingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<uint64_t> CountingEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

Status CountingEnv::RenameFile(const std::string& from, const std::string& to) {
  return Note(base_->RenameFile(from, to));
}

Status CountingEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}

Status CountingEnv::TruncateFile(const std::string& path, uint64_t size) {
  return Note(base_->TruncateFile(path, size));
}

Status CountingEnv::SyncDir(const std::string& dir) {
  return TimedSync([&] { return base_->SyncDir(dir); });
}

// --- raw results ---------------------------------------------------------------

void RunOutput::Check(const std::string& name, bool ok,
                      const std::string& detail) {
  checks.emplace_back(name, ok);
  if (!ok) {
    ++failed;
    check_details.push_back(name + ": " + detail);
  }
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.17g", v);
}

}  // namespace

Status RunOutput::WriteJson(const std::string& path) const {
  std::string j = "{\n";
  j += "  \"workload\": " + JsonString(workload) + ",\n";
  j += StrFormat("  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  j += StrFormat("  \"trace\": %d,\n", trace);
  j += StrFormat("  \"attempted\": %llu,\n",
                 static_cast<unsigned long long>(attempted));
  j += StrFormat("  \"failed\": %llu,\n",
                 static_cast<unsigned long long>(failed));
  j += "  \"checks\": {";
  for (size_t i = 0; i < checks.size(); ++i) {
    j += (i ? ", " : "") + JsonString(checks[i].first) + ": " +
         (checks[i].second ? "true" : "false");
  }
  j += "},\n  \"check_details\": [";
  for (size_t i = 0; i < check_details.size(); ++i) {
    j += (i ? ", " : "") + JsonString(check_details[i]);
  }
  j += "],\n  \"samples\": {";
  bool first = true;
  for (const auto& [name, values] : samples) {
    j += std::string(first ? "\n" : ",\n") + "    " + JsonString(name) + ": [";
    for (size_t i = 0; i < values.size(); ++i) {
      j += (i ? ", " : "") + JsonNumber(values[i]);
    }
    j += "]";
    first = false;
  }
  auto scalar_map = [&](const char* key,
                        const std::map<std::string, double>& m) {
    j += StrFormat("},\n  \"%s\": {", key);
    bool f = true;
    for (const auto& [name, v] : m) {
      j += std::string(f ? "\n" : ",\n") + "    " + JsonString(name) + ": " +
           JsonNumber(v);
      f = false;
    }
  };
  scalar_map("scalars", scalars);
  scalar_map("layer", layer);
  j += "},\n  \"config\": {";
  first = true;
  for (const auto& [name, v] : config) {
    j += std::string(first ? "\n" : ",\n") + "    " + JsonString(name) + ": " +
         JsonString(v);
    first = false;
  }
  j += "}\n}\n";
  std::ofstream out(path);
  out << j;
  return out ? Status::OK() : Status::IOError("cannot write " + path);
}

Deck::Deck(size_t n, uint64_t seed) : rng_(seed), cards_(n), pos_(n) {
  for (size_t i = 0; i < n; ++i) cards_[i] = i;
}

size_t Deck::Next() {
  if (pos_ == cards_.size()) {
    for (size_t i = cards_.size(); i > 1; --i) {
      std::swap(cards_[i - 1], cards_[rng_.NextBelow(i)]);
    }
    pos_ = 0;
  }
  return cards_[pos_++];
}

// --- the re-driven read chain ------------------------------------------------

void LayerCounters::Export(RunOutput* out) const {
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  out->layer["core.mapped.bytes_decoded_per_stmt"] =
      ratio(bytes_decoded.load(), materialize_calls.load());
  out->layer["core.mapped.shards_kept_ratio"] =
      ratio(shards_kept.load(), shards_total.load());
  out->layer["core.lifted.input_rows_per_output_row"] =
      ratio(lifted_input_rows.load(), lifted_output_rows.load());
  out->layer["core.conf.approx_samples_per_stmt"] =
      ratio(approx_samples.load(), approx_calls.load());
  out->layer["core.conf.cache_hit_ratio"] =
      ratio(conf_cache_hits.load(), conf_cache_lookups.load());
}

namespace {

uint64_t TotalTuples(const WsdDb& db) {
  uint64_t n = 0;
  for (const std::string& name : db.RelationNames()) {
    Result<const WsdRelation*> rel = db.GetRelation(name);
    if (rel.ok()) n += (*rel)->NumTuples();
  }
  return n;
}

/// Renames the trailing `n` columns the way RunSelect does.
Relation RenameTail(const Relation& conf, const std::vector<std::string>& names) {
  std::vector<Attribute> attrs = conf.schema().attrs();
  const size_t n = attrs.size();
  for (size_t i = 0; i < names.size(); ++i) {
    attrs[n - names.size() + i].name = names[i];
  }
  Relation renamed(conf.name(), Schema(attrs));
  for (const auto& row : conf.rows()) renamed.AppendUnchecked(row);
  return renamed;
}

Relation ScalarTable(const char* column, double v) {
  Relation table("", Schema({{column, ValueType::kDouble}}));
  table.AppendUnchecked({Value::Double(v)});
  return table;
}

}  // namespace

Result<sql::StatementResult> RedriveSelect(sql::Session* s,
                                           const std::string& text,
                                           LayerCounters* counters) {
  sql::Statement stmt;
  {
    ScopedSpan span("sql.parse");
    MAYBMS_ASSIGN_OR_RETURN(stmt, sql::ParseStatement(text));
  }
  if (stmt.kind != sql::Statement::Kind::kSelect) {
    return Status::InvalidArgument("re-drive expects a SELECT: " + text);
  }
  sql::PlannedQuery q;
  {
    ScopedSpan span("sql.plan");
    MAYBMS_ASSIGN_OR_RETURN(q, sql::PlanSelect(*stmt.select, s->db()));
  }
  PlanPtr plan;
  {
    ScopedSpan span("sql.optimize");
    MAYBMS_ASSIGN_OR_RETURN(
        plan, sql::Optimize(q.plan, s->db(), s->options().optimizer));
  }
  LiftedExecOptions lifted_opts;
  lifted_opts.eval = s->options().exec;
  ConfidenceOptions conf_opts = s->options().conf;

  WsdDb scratch;
  const WsdDb* input = &s->db();
  if (s->is_mapped()) {
    // MaterializeForPlan is non-const but internally synchronized; the
    // session only hands out a const pointer to its (non-const) map.
    auto* mapped = const_cast<MappedWsdDb*>(s->mapped_db());
    {
      ScopedSpan span("core.mapped.materialize");
      MAYBMS_ASSIGN_OR_RETURN(scratch, mapped->MaterializeForPlan(*plan));
    }
    const MaterializeStats st = mapped->last_stats();
    counters->materialize_calls.fetch_add(1);
    counters->bytes_decoded.fetch_add(st.bytes_decoded);
    counters->shards_kept.fetch_add(st.shards_kept);
    counters->shards_total.fetch_add(st.shards_total);
    input = &scratch;
  }
  WsdDb answer;
  {
    ScopedSpan span("core.lifted.execute");
    MAYBMS_ASSIGN_OR_RETURN(answer, ExecuteLifted(plan, *input, lifted_opts));
  }
  counters->lifted_input_rows.fetch_add(TotalTuples(*input));
  counters->lifted_output_rows.fetch_add(TotalTuples(answer));

  // Hits and lookups of the session's confidence cache during this
  // statement's confidence step.
  MaterializedConf* cache = s->conf_cache();
  const MaterializedConf::Stats before =
      cache ? cache->GetStats() : MaterializedConf::Stats();
  struct CountLookups {
    MaterializedConf* cache;
    MaterializedConf::Stats before;
    LayerCounters* counters;
    ~CountLookups() {
      if (cache == nullptr) return;
      const MaterializedConf::Stats after = cache->GetStats();
      counters->conf_cache_hits.fetch_add(after.hits - before.hits);
      counters->conf_cache_lookups.fetch_add(after.hits + after.misses -
                                             before.hits - before.misses);
    }
  } count_lookups{cache, before, counters};

  sql::StatementResult result;
  result.kind = sql::StatementResult::Kind::kTable;
  if (q.wants_approx) {
    ApproxOptions opts = s->options().approx;
    opts.cache = cache;
    opts.epsilon = q.approx_eps;
    opts.delta = q.approx_delta;
    ApproxConfStats stats;
    Relation conf;
    {
      ScopedSpan span("core.conf.approx");
      MAYBMS_ASSIGN_OR_RETURN(conf,
                              ApproxConfTable(answer, "result", opts, &stats));
    }
    counters->approx_calls.fetch_add(1);
    counters->approx_samples.fetch_add(stats.total_samples);
    result.table = RenameTail(
        conf, {q.prob_alias, q.prob_alias + "_lo", q.prob_alias + "_hi"});
    return result;
  }
  conf_opts.cache = cache;
  // Only the branches that call a confidence entry point are timed; a
  // world-set answer makes no confidence call.
  if (q.wants_ecount) {
    ScopedSpan span("core.conf.exact");
    MAYBMS_ASSIGN_OR_RETURN(double ec,
                            ExpectedCount(answer, "result", conf_opts));
    result.table = ScalarTable("ecount", ec);
  } else if (q.wants_esum) {
    ScopedSpan span("core.conf.exact");
    MAYBMS_ASSIGN_OR_RETURN(
        double es, ExpectedSum(answer, "result", q.esum_column, conf_opts));
    result.table = ScalarTable("esum", es);
  } else if (q.wants_prob) {
    ScopedSpan span("core.conf.exact");
    MAYBMS_ASSIGN_OR_RETURN(Relation conf,
                            ConfTable(answer, "result", conf_opts));
    result.table = RenameTail(conf, {q.prob_alias});
  } else if (q.mode == sql::SelectMode::kPossible) {
    ScopedSpan span("core.conf.exact");
    MAYBMS_ASSIGN_OR_RETURN(result.table,
                            PossibleTuples(answer, "result", conf_opts));
  } else if (q.mode == sql::SelectMode::kCertain) {
    ScopedSpan span("core.conf.exact");
    MAYBMS_ASSIGN_OR_RETURN(result.table,
                            CertainTuples(answer, "result", conf_opts));
  } else {
    result.kind = sql::StatementResult::Kind::kWorldSet;
    result.world_set = std::move(answer);
  }
  return result;
}

std::string Render(const sql::StatementResult& r) {
  return r.ToDisplayString(std::numeric_limits<size_t>::max());
}

// --- durable writes and recovery ----------------------------------------------

void WriteMeter::Add(const CountingEnv::Counters& before,
                     const CountingEnv::Counters& after,
                     size_t statement_bytes) {
  ++writes;
  user_bytes += statement_bytes;
  env.syncs += after.syncs - before.syncs;
  env.sync_ns += after.sync_ns - before.sync_ns;
  env.bytes_appended += after.bytes_appended - before.bytes_appended;
  env.errors += after.errors - before.errors;
}

void WriteMeter::Export(RunOutput* out) const {
  auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  out->layer["storage.env.fsync_ms"] =
      ratio(static_cast<double>(env.sync_ns) / 1e6,
            static_cast<double>(env.syncs));
  out->layer["storage.env.fsyncs_per_write"] =
      ratio(static_cast<double>(env.syncs), static_cast<double>(writes));
  out->layer["storage.env.bytes_written_per_user_byte"] =
      ratio(static_cast<double>(env.bytes_appended),
            static_cast<double>(user_bytes));
  out->layer["storage.snapshot.checkpoints"] = static_cast<double>(checkpoints);
  double sum = 0;
  for (double ms : checkpoint_ms) sum += ms;
  out->layer["storage.snapshot.checkpoint_ms"] =
      ratio(sum, static_cast<double>(checkpoint_ms.size()));
}

Result<DeltaBatch> DeltaFor(const std::string& text) {
  MAYBMS_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(text));
  DeltaBatch batch;
  if (stmt.kind == sql::Statement::Kind::kDelete) {
    batch.EvictOldest(stmt.delete_stmt->table, stmt.delete_stmt->count);
    return batch;
  }
  if (stmt.kind != sql::Statement::Kind::kInsert) {
    return Status::InvalidArgument("no delta form for: " + text);
  }
  for (const auto& row : stmt.insert->rows) {
    std::vector<CellSpec> cells;
    for (const auto& cell : row) {
      if (!cell.is_orset) {
        cells.push_back(CellSpec::Certain(cell.value));
      } else if (cell.probs.empty()) {
        cells.push_back(CellSpec::UniformOrSet(cell.alternatives));
      } else {
        std::vector<Alternative> alts;
        for (size_t i = 0; i < cell.alternatives.size(); ++i) {
          alts.push_back({cell.alternatives[i], cell.probs[i]});
        }
        cells.push_back(CellSpec::OrSet(std::move(alts)));
      }
    }
    batch.Insert(stmt.insert->table, std::move(cells));
  }
  return batch;
}

Status ShadowDb::Apply(const std::string& sql) {
  MAYBMS_ASSIGN_OR_RETURN(DeltaBatch batch, DeltaFor(sql));
  ScopedSpan span("core.delta.apply");
  MAYBMS_ASSIGN_OR_RETURN(DeltaEffects effects, db.ApplyDelta(batch));
  ++applies;
  dirty_components += effects.dirty_components.size();
  return Status::OK();
}

void ShadowDb::Export(RunOutput* out) const {
  out->layer["core.delta.dirty_components_per_write"] =
      applies == 0 ? 0.0
                   : static_cast<double>(dirty_components) /
                         static_cast<double>(applies);
}

namespace {

/// ReadWal + applying its records to `db` the way Session::ReplayWal
/// does, from outside the engine.
Status ReplayInto(Env* env, const std::string& wal_path, WsdDb db) {
  MAYBMS_ASSIGN_OR_RETURN(wal::WalContents contents,
                          wal::ReadWal(env, wal_path));
  sql::Session session(std::move(db));
  session.mutable_options().durability.wal_enabled = false;
  for (const wal::WalRecord& rec : contents.records) {
    if (rec.type == wal::RecordType::kDelta) {
      MAYBMS_ASSIGN_OR_RETURN(DeltaBatch batch,
                              DeltaBatch::Deserialize(rec.payload));
      MAYBMS_RETURN_IF_ERROR(session.db().ApplyDelta(batch).status());
    } else {
      MAYBMS_RETURN_IF_ERROR(session.Execute(rec.payload).status());
    }
  }
  return Status::OK();
}

}  // namespace

void PauseBeforeProbe(int k) {
  if (k > 0) std::this_thread::sleep_for(std::chrono::milliseconds(400));
}

Result<std::unique_ptr<sql::Session>> RecoverCopy(const std::string& snapshot,
                                                  const std::string& copy,
                                                  bool mapped, Env* env,
                                                  double* seconds) {
  MAYBMS_RETURN_IF_ERROR(CopySnapshot(snapshot, copy));
  if (Tracer::Get().enabled()) {
    WsdDb loaded;
    {
      ScopedSpan span("storage.snapshot.load");
      if (mapped) {
        MAYBMS_RETURN_IF_ERROR(MappedWsdDb::Open(copy, {}, env).status());
      } else {
        MAYBMS_ASSIGN_OR_RETURN(loaded, LoadWsdDb(copy, env));
      }
    }
    ScopedSpan span("storage.wal.replay");
    if (mapped) {
      // A mapped open applies no log lazily; only the scan is timed.
      MAYBMS_RETURN_IF_ERROR(
          wal::ReadWal(env, wal::WalPathFor(copy)).status());
    } else {
      MAYBMS_RETURN_IF_ERROR(
          ReplayInto(env, wal::WalPathFor(copy), std::move(loaded)));
    }
  }
  auto session = std::make_unique<sql::Session>();
  session->set_env(env);
  const std::string load = "LOAD DATABASE '" + copy + "'" +
                           (mapped ? " MAPPED" : "");
  const int64_t t0 = NowNs();
  MAYBMS_RETURN_IF_ERROR(session->Execute(load).status());
  *seconds = MsBetween(t0, NowNs()) / 1e3;
  return session;
}

// --- files ---------------------------------------------------------------------

namespace {

/// Copies one file and makes the copy durable, so that a later timed
/// fsync does not also flush the copy's dirty pages.
Status CopyDurably(const std::string& src, const std::string& dst) {
  std::error_code ec;
  fs::copy_file(src, dst, fs::copy_options::overwrite_existing, ec);
  if (ec) return Status::IOError("copy " + src + ": " + ec.message());
  const int fd = ::open(dst.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    return Status::IOError("fsync " + dst);
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace

Status CopySnapshot(const std::string& src, const std::string& dst) {
  MAYBMS_RETURN_IF_ERROR(CopyDurably(src, dst));
  const std::string wal = src + ".wal";
  if (fs::exists(wal)) return CopyDurably(wal, dst + ".wal");
  std::error_code ec;
  fs::remove(dst + ".wal", ec);
  return Status::OK();
}

void RemoveSnapshot(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(path + ".wal", ec);
  fs::remove(path + ".tmp", ec);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

}  // namespace wsdbench
