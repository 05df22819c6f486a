#include "sql/session.h"

#include <cmath>
#include <variant>

#include "chase/enforce.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "core/builder.h"
#include "core/repair.h"
#include "core/confidence.h"
#include "core/lifted_executor.h"
#include "core/serialize.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "worlds/enumerate.h"

namespace maybms {
namespace sql {

namespace {

// The SET / SHOW SETTINGS knob registry: dotted leaf name → typed
// get/set over the SessionOptions aggregate. Sorted by name; SHOW
// SETTINGS lists in this order. The ε/δ of APPROX CONF are per-query
// (not knobs), and conf.cache / approx.cache are wired internally.
struct Knob {
  const char* name;
  std::string (*get)(const SessionOptions&);
  Status (*set)(SessionOptions*, const Value&);
};

Status ExpectBool(const Value& v, bool* out) {
  if (v.is_bool()) {
    *out = v.as_bool();
    return Status::OK();
  }
  if (v.is_int()) {
    *out = v.as_int() != 0;
    return Status::OK();
  }
  return Status::InvalidArgument("expected a boolean value");
}

Status ExpectCount(const Value& v, size_t* out) {
  if (v.is_int() && v.as_int() >= 0) {
    *out = static_cast<size_t>(v.as_int());
    return Status::OK();
  }
  return Status::InvalidArgument("expected a non-negative integer");
}

Status ExpectSeed(const Value& v, uint64_t* out) {
  if (v.is_int() && v.as_int() >= 0) {
    *out = static_cast<uint64_t>(v.as_int());
    return Status::OK();
  }
  return Status::InvalidArgument("expected a non-negative integer");
}

Status ExpectDouble(const Value& v, double* out) {
  if (v.is_numeric()) {
    *out = v.NumericValue();
    return Status::OK();
  }
  return Status::InvalidArgument("expected a number");
}

std::string FormatBoolKnob(bool b) { return b ? "true" : "false"; }

#define MAYBMS_KNOB(NAME, FIELD, FMT, EXPECT)                      \
  Knob {                                                           \
    NAME, [](const SessionOptions& o) { return FMT(o.FIELD); },    \
        [](SessionOptions* o, const Value& v) {                    \
          return EXPECT(v, &o->FIELD);                             \
        }                                                          \
  }
#define MAYBMS_BOOL_KNOB(NAME, FIELD) \
  MAYBMS_KNOB(NAME, FIELD, FormatBoolKnob, ExpectBool)
#define MAYBMS_COUNT_KNOB(NAME, FIELD)                                       \
  MAYBMS_KNOB(                                                               \
      NAME, FIELD, [](size_t x) { return StrFormat("%zu", x); }, ExpectCount)

const Knob kKnobs[] = {
    MAYBMS_COUNT_KNOB("approx.enum_chunk", approx.enum_chunk),
    MAYBMS_COUNT_KNOB("approx.exact_state_limit", approx.exact_state_limit),
    MAYBMS_BOOL_KNOB("approx.factorize_clusters", approx.factorize_clusters),
    MAYBMS_COUNT_KNOB("approx.fixed_samples", approx.fixed_samples),
    MAYBMS_COUNT_KNOB("approx.max_enum_states", approx.max_enum_states),
    MAYBMS_COUNT_KNOB("approx.max_samples", approx.max_samples),
    MAYBMS_BOOL_KNOB("approx.member_marginals", approx.member_marginals),
    MAYBMS_COUNT_KNOB("approx.num_threads", approx.num_threads),
    MAYBMS_COUNT_KNOB("approx.sample_chunk", approx.sample_chunk),
    MAYBMS_BOOL_KNOB("approx.sampling_only", approx.sampling_only),
    MAYBMS_KNOB(
        "approx.seed", approx.seed,
        [](uint64_t x) {
          return StrFormat("%llu", static_cast<unsigned long long>(x));
        },
        ExpectSeed),
    MAYBMS_KNOB(
        "conf.eps", conf.eps, [](double x) { return StrFormat("%g", x); },
        ExpectDouble),
    MAYBMS_BOOL_KNOB("conf.factorize_clusters", conf.factorize_clusters),
    MAYBMS_COUNT_KNOB("conf.max_cluster_states", conf.max_cluster_states),
    MAYBMS_COUNT_KNOB("conf.num_threads", conf.num_threads),
    MAYBMS_COUNT_KNOB("durability.auto_checkpoint_records",
                      durability.auto_checkpoint_records),
    MAYBMS_BOOL_KNOB("durability.wal_enabled", durability.wal_enabled),
    MAYBMS_BOOL_KNOB("exec.compile_expressions", exec.compile_expressions),
    MAYBMS_COUNT_KNOB("exec.num_threads", exec.num_threads),
    MAYBMS_COUNT_KNOB("exec.parallel_row_threshold",
                      exec.parallel_row_threshold),
    MAYBMS_BOOL_KNOB("materialize_conf", materialize_conf),
    MAYBMS_COUNT_KNOB("materialize_conf_capacity", materialize_conf_capacity),
    MAYBMS_BOOL_KNOB("optimizer.enable", optimizer.enable),
    MAYBMS_BOOL_KNOB("optimizer.fold_constants", optimizer.fold_constants),
    MAYBMS_BOOL_KNOB("optimizer.prune_projections",
                     optimizer.prune_projections),
    MAYBMS_BOOL_KNOB("optimizer.push_predicates", optimizer.push_predicates),
    MAYBMS_BOOL_KNOB("optimizer.reorder_joins", optimizer.reorder_joins),
};

#undef MAYBMS_COUNT_KNOB
#undef MAYBMS_BOOL_KNOB
#undef MAYBMS_KNOB

const Knob* FindKnob(const std::string& name) {
  const std::string lower = ToLower(name);
  for (const Knob& k : kKnobs) {
    if (lower == k.name) return &k;
  }
  return nullptr;
}

/// True when a MAPPED session can hold every op of `batch` in its write
/// overlay: inserts and CREATE TABLE only create, and evictions retire
/// base rows by count. Any other op needs the whole database.
bool OverlayHolds(const DeltaBatch& batch) {
  for (const DeltaBatch::Op& op : batch.ops()) {
    if (!std::holds_alternative<DeltaBatch::InsertOp>(op) &&
        !std::holds_alternative<DeltaBatch::EvictOp>(op) &&
        !std::holds_alternative<DeltaBatch::CreateOp>(op)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Status Session::SetOption(const std::string& name, const Value& value) {
  const Knob* knob = FindKnob(name);
  if (knob == nullptr) {
    return Status::InvalidArgument(
        StrFormat("unknown setting '%s' (SHOW SETTINGS lists all knobs)",
                  name.c_str()));
  }
  Status st = knob->set(&options_, value);
  if (!st.ok()) {
    return Status::InvalidArgument(StrFormat("SET %s: %s", knob->name,
                                             st.message().c_str()));
  }
  return Status::OK();
}

uint64_t Session::SettingsFingerprint() const {
  std::string flat;
  for (const Knob& k : kKnobs) {
    flat += k.name;
    flat += '=';
    flat += k.get(options_);
    flat += ';';
  }
  return HashString(flat);
}

MaterializedConf* Session::conf_cache() {
  if (!options_.materialize_conf) return nullptr;
  const size_t cap = options_.materialize_conf_capacity;
  if (!conf_cache_ || conf_cache_capacity_ != cap) {
    conf_cache_ = std::make_unique<MaterializedConf>(cap);
    conf_cache_capacity_ = cap;
  }
  return conf_cache_.get();
}

std::string StatementResult::ToDisplayString(size_t max_rows) const {
  switch (kind) {
    case Kind::kMessage:
      return message;
    case Kind::kTable:
      return table.ToString(max_rows);
    case Kind::kWorldSet: {
      std::string out = world_set.ToString();
      out += StrFormat("(world-set: 2^%.4g choice combinations)\n",
                       world_set.Log2WorldCount());
      return out;
    }
  }
  return "";
}

Result<StatementResult> Session::Execute(const std::string& statement) {
  MAYBMS_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  return ExecuteParsed(stmt);
}

Result<std::vector<StatementResult>> Session::ExecuteScript(
    const std::string& script) {
  MAYBMS_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseScript(script));
  std::vector<StatementResult> out;
  out.reserve(stmts.size());
  for (const auto& stmt : stmts) {
    MAYBMS_ASSIGN_OR_RETURN(StatementResult r, ExecuteParsed(stmt));
    out.push_back(std::move(r));
  }
  return out;
}

Status Session::EnsureResident() { return Promote(&mapped_, &db_); }

Status Session::Promote(std::optional<MappedWsdDb>* mapped, WsdDb* db) {
  if (!mapped->has_value()) return Status::OK();
  MAYBMS_ASSIGN_OR_RETURN(WsdDb full, (*mapped)->MaterializeAll(*db));
  *db = std::move(full);
  mapped->reset();
  return Status::OK();
}

Result<uint64_t> Session::WriteSnapshot(const WsdDb& db,
                                        const std::string& path,
                                        SnapshotFormat format,
                                        uint64_t* out_bytes) {
  MAYBMS_ASSIGN_OR_RETURN(std::string bytes, SerializeWsdDb(db, format));
  MAYBMS_RETURN_IF_ERROR(AtomicWriteFile(env(), path, bytes));
  if (out_bytes != nullptr) *out_bytes = bytes.size();
  return wal::SnapshotFingerprint(bytes);
}

Status Session::Checkpoint() {
  if (!attach_) {
    return Status::InvalidArgument(
        "CHECKPOINT requires a durable attachment (SAVE DATABASE or "
        "LOAD DATABASE first)");
  }
  // A mapped session writes its folded overlay: the database an eager
  // session that ran the same writes holds.
  WsdDb folded;
  if (mapped_) {
    MAYBMS_ASSIGN_OR_RETURN(folded, mapped_->MaterializeAll(db_));
  }
  // Snapshot first, log reset second. A crash between the two leaves the
  // new snapshot next to the old log; the fingerprint mismatch on the
  // next load discards that log instead of double-applying it.
  MAYBMS_ASSIGN_OR_RETURN(
      uint64_t fingerprint,
      WriteSnapshot(mapped_ ? folded : db_, attach_->db_path, attach_->format,
                    nullptr));
  attach_->writer.reset();
  MAYBMS_ASSIGN_OR_RETURN(
      wal::WalWriter writer,
      wal::WalWriter::Create(env(), attach_->wal_path, fingerprint,
                             /*base_lsn=*/1));
  attach_->writer.emplace(std::move(writer));
  attach_->next_auto_checkpoint = 0;
  if (mapped_) {
    // Map the file just written and start over from an empty overlay. A
    // file that cannot be mapped leaves the folded database resident.
    Result<MappedWsdDb> remapped =
        MappedWsdDb::Open(attach_->db_path, {}, env());
    if (remapped.ok()) {
      db_ = remapped->skeleton();
      mapped_.emplace(std::move(*remapped));
    } else {
      db_ = std::move(folded);
      mapped_.reset();
    }
  }
  return Status::OK();
}

void Session::CheckpointOrDetach() {
  if (!Checkpoint().ok() && attach_) attach_->writer.reset();
}

Status Session::ReplayWal(const std::vector<wal::WalRecord>& records,
                          std::optional<MappedWsdDb>* mapped, WsdDb* db,
                          bool* fold_now) {
  *fold_now = false;
  for (const wal::WalRecord& rec : records) {
    if (rec.type == wal::RecordType::kStatement) {
      MAYBMS_RETURN_IF_ERROR(Promote(mapped, db));
      ReplayLegacyWal(records, db);
      *fold_now = true;
      return Status::OK();
    }
  }
  for (size_t i = 0; i < records.size(); ++i) {
    Result<DeltaBatch> batch = DeltaBatch::Deserialize(records[i].payload);
    // A record the overlay cannot hold promotes, as its live run did.
    if (batch.ok() && !OverlayHolds(*batch)) {
      MAYBMS_RETURN_IF_ERROR(Promote(mapped, db));
    }
    const Status st =
        batch.ok() ? db->ApplyDelta(*batch).status() : batch.status();
    if (st.ok()) continue;
    if (batch.ok() && i + 1 == records.size()) {
      *fold_now = true;
      break;
    }
    return Status::ParseError(StrFormat(
        "corrupt WAL record at LSN %llu: %s",
        static_cast<unsigned long long>(records[i].lsn),
        st.ToString().c_str()));
  }
  return Status::OK();
}

void Session::ReplayLegacyWal(const std::vector<wal::WalRecord>& records,
                              WsdDb* db) {
  Session legacy(std::move(*db));
  for (const wal::WalRecord& rec : records) {
    if (rec.type == wal::RecordType::kStatement) {
      (void)legacy.Execute(rec.payload);
      continue;
    }
    Result<DeltaBatch> batch = DeltaBatch::Deserialize(rec.payload);
    if (batch.ok()) (void)legacy.db_.ApplyDelta(*batch);
  }
  *db = std::move(legacy.db_);
}

Result<StatementResult> Session::ExecuteParsed(const Statement& stmt) {
  // SELECT and EXPLAIN run against the mapped snapshot directly (that is
  // the point of MAPPED), INSERT, DELETE ... OLDEST and CREATE TABLE go to
  // its write overlay, and CHECKPOINT folds that overlay into a new
  // mapped file. Everything else mutates or fully reads the catalog, so
  // it first forces the snapshot resident.
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
    case Statement::Kind::kExplain:
    case Statement::Kind::kLoadDb:
    case Statement::Kind::kSet:  // settings never touch the catalog
    case Statement::Kind::kInsert:
    case Statement::Kind::kDelete:
    case Statement::Kind::kCreateTable:
    case Statement::Kind::kCheckpoint:
      break;
    case Statement::Kind::kShow:
      if (stmt.show->what == ShowStmt::What::kTables ||
          stmt.show->what == ShowStmt::What::kSettings) {
        break;
      }
      MAYBMS_RETURN_IF_ERROR(EnsureResident());
      break;
    default:
      MAYBMS_RETURN_IF_ERROR(EnsureResident());
      break;
  }
  StatementResult result;
  switch (stmt.kind) {
    case Statement::Kind::kCreateTable: {
      DeltaBatch batch;
      batch.CreateRelation(stmt.create_table->name, stmt.create_table->schema);
      MAYBMS_RETURN_IF_ERROR(ApplyDelta(batch).status());
      result.message =
          "created table " + stmt.create_table->name + " " +
          stmt.create_table->schema.ToString();
      return result;
    }
    case Statement::Kind::kDropTable: {
      DeltaBatch batch;
      batch.DropRelation(stmt.drop_table->name);
      MAYBMS_RETURN_IF_ERROR(ApplyDelta(batch).status());
      result.message = "dropped table " + stmt.drop_table->name;
      return result;
    }
    case Statement::Kind::kInsert:
      return RunInsert(*stmt.insert);
    case Statement::Kind::kSelect:
      return RunSelect(*stmt.select);
    case Statement::Kind::kExplain: {
      MAYBMS_ASSIGN_OR_RETURN(PlannedQuery q,
                              PlanSelect(*stmt.explain->select, db_));
      MAYBMS_ASSIGN_OR_RETURN(PlanPtr optimized,
                              Optimize(q.plan, db_, options_.optimizer));
      MAYBMS_ASSIGN_OR_RETURN(std::string before, ExplainPlan(q.plan, db_));
      MAYBMS_ASSIGN_OR_RETURN(std::string after, ExplainPlan(optimized, db_));
      result.message = "plan:\n" + before + "\n\nplan (optimized):\n" + after;
      if (q.wants_prob) result.message += "\n→ PROB() via conf computation";
      if (q.wants_approx) {
        result.message += StrFormat(
            "\n→ APPROX CONF(ε=%g, δ=%g) via anytime per-cluster "
            "estimation (exact ≤ %zu states, else bracket/sample to ε/K)",
            q.approx_eps, q.approx_delta,
            options_.approx.exact_state_limit);
      }
      if (q.wants_ecount) result.message += "\n→ ECOUNT() via existence sums";
      if (q.wants_esum) {
        result.message +=
            "\n→ ESUM(" + q.esum_column + ") via expectation sums";
      }
      if (q.mode == SelectMode::kPossible)
        result.message += "\n→ possible answers";
      if (q.mode == SelectMode::kCertain)
        result.message += "\n→ certain answers";
      return result;
    }
    case Statement::Kind::kShow:
      return RunShow(*stmt.show);
    case Statement::Kind::kEnforce:
      return RunEnforce(*stmt.enforce);
    case Statement::Kind::kRepair: {
      MAYBMS_RETURN_IF_ERROR(db_.GetRelation(stmt.repair->table).status());
      DeltaBatch batch;
      batch.RepairKey(stmt.repair->table, stmt.repair->key,
                      stmt.repair->weight);
      MAYBMS_ASSIGN_OR_RETURN(DeltaEffects effects, ApplyDelta(batch));
      StatementResult result;
      result.message = StrFormat(
          "repaired key (%s) in %s: %zu group(s), %zu conflicting, "
          "world count x 2^%.4g",
          Join(stmt.repair->key, ",").c_str(), stmt.repair->table.c_str(),
          effects.repair_groups, effects.repair_conflicting_groups,
          effects.repair_log2_worlds_added);
      return result;
    }
    case Statement::Kind::kSaveDb:
      return RunSaveDb(*stmt.save_db);
    case Statement::Kind::kLoadDb:
      return RunLoadDb(*stmt.load_db);
    case Statement::Kind::kCheckpoint: {
      MAYBMS_RETURN_IF_ERROR(Checkpoint());
      result.message = StrFormat("checkpointed to '%s' (log reset)",
                                 attach_->db_path.c_str());
      return result;
    }
    case Statement::Kind::kSet:
      return RunSet(*stmt.set);
    case Statement::Kind::kDelete:
      return RunDelete(*stmt.delete_stmt);
  }
  return Status::Internal("unreachable statement kind");
}

Result<StatementResult> Session::RunSaveDb(const SaveDbStmt& stmt) {
  SnapshotFormat format =
      stmt.binary ? SnapshotFormat::kBinary : SnapshotFormat::kText;
  // Saving to a new path supersedes any previous attachment; drop it
  // first so a failed save cannot leave a half-configured binding.
  attach_.reset();
  uint64_t bytes = 0;
  MAYBMS_ASSIGN_OR_RETURN(uint64_t fingerprint,
                          WriteSnapshot(db_, stmt.path, format, &bytes));
  StatementResult result;
  result.message = StrFormat(
      "saved database to '%s' (%s format, %s)", stmt.path.c_str(),
      stmt.binary ? "binary" : "text", FormatBytes(bytes).c_str());
  if (options_.durability.wal_enabled) {
    DurableAttachment a;
    a.db_path = stmt.path;
    a.wal_path = wal::WalPathFor(stmt.path);
    a.format = format;
    MAYBMS_ASSIGN_OR_RETURN(
        wal::WalWriter writer,
        wal::WalWriter::Create(env(), a.wal_path, fingerprint,
                               /*base_lsn=*/1));
    a.writer.emplace(std::move(writer));
    attach_.emplace(std::move(a));
    result.message += StrFormat("; logging to '%s'",
                                attach_->wal_path.c_str());
  }
  return result;
}

Result<StatementResult> Session::RunLoadDb(const LoadDbStmt& stmt) {
  const std::string wal_path = wal::WalPathFor(stmt.path);
  const bool durable = options_.durability.wal_enabled;
  // The snapshot is mapped once: a durable load fingerprints that view
  // to match the log against it, then the image is either kept (MAPPED,
  // with an empty write overlay) or materialized whole and released.
  // All fallible work (decode, log scan and replay) happens before the
  // catalog swap, so a failed LOAD leaves the session untouched.
  MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessImage> image,
                          env()->MapFile(stmt.path));
  const uint64_t fingerprint =
      durable ? wal::SnapshotFingerprint(image->bytes()) : 0;
  std::optional<MappedWsdDb> mapped;
  WsdDb loaded;
  // Future checkpoints rewrite the snapshot in the format it holds now.
  SnapshotFormat format = SnapshotFormat::kBinary;
  if (stmt.mapped) {
    MAYBMS_ASSIGN_OR_RETURN(mapped, MappedWsdDb::Open(std::move(image)));
    loaded = mapped->skeleton();
  } else {
    MAYBMS_ASSIGN_OR_RETURN(loaded, ReadWsdDbImage(std::move(image), &format));
  }

  Result<wal::WalContents> contents = Status::NotFound("durability off");
  size_t replayed = 0;
  bool fold_now = false;
  if (durable) {
    contents = wal::ReadWal(env(), wal_path);
    if (contents.ok() && contents->usable &&
        contents->snapshot_fingerprint == fingerprint) {
      MAYBMS_RETURN_IF_ERROR(
          ReplayWal(contents->records, &mapped, &loaded, &fold_now));
      replayed = contents->records.size();
    }
  }
  attach_.reset();
  if (durable) {
    MAYBMS_RETURN_IF_ERROR(
        AttachForLoad(stmt.path, wal_path, fingerprint, format, contents));
  }
  db_ = std::move(loaded);
  mapped_ = std::move(mapped);
  // A legacy log, or a failing last record, must not stay live: a new
  // record appended behind it would turn it into a corrupt middle one.
  if (fold_now) CheckpointOrDetach();

  StatementResult result;
  if (mapped_) {
    size_t shards = 0;
    for (const auto& part : mapped_->partitions()) {
      shards += part->shards.size();
    }
    result.message = StrFormat(
        "mapped database from '%s': %zu relation(s), %zu shard(s), "
        "%zu component(s), %s on disk",
        stmt.path.c_str(), db_.relations().size(), shards,
        mapped_->num_components(),
        FormatBytes(mapped_->snapshot_bytes()).c_str());
  } else {
    result.message = StrFormat(
        "loaded database from '%s': %zu relation(s), %zu component(s), "
        "2^%.4g choice combinations",
        stmt.path.c_str(), db_.relations().size(), db_.NumLiveComponents(),
        db_.Log2WorldCount());
  }
  if (replayed > 0) {
    result.message += StrFormat("; recovered %zu statement(s) from '%s'",
                                replayed, wal_path.c_str());
  }
  return result;
}

Status Session::AttachForLoad(const std::string& db_path,
                              const std::string& wal_path,
                              uint64_t fingerprint, SnapshotFormat format,
                              const Result<wal::WalContents>& contents) {
  DurableAttachment a;
  a.db_path = db_path;
  a.wal_path = wal_path;
  a.format = format;
  if (contents.ok() && contents->usable &&
      contents->snapshot_fingerprint == fingerprint) {
    // Continue the existing log (repairing any torn tail) so replayed
    // records stay durable until the next checkpoint folds them in.
    MAYBMS_ASSIGN_OR_RETURN(
        wal::WalWriter writer,
        wal::WalWriter::OpenForAppend(env(), wal_path, *contents));
    a.writer.emplace(std::move(writer));
  } else if (contents.ok() ||
             contents.status().code() == StatusCode::kNotFound) {
    // Missing, corrupt, or bound to a different snapshot generation:
    // start a fresh log for this snapshot.
    MAYBMS_ASSIGN_OR_RETURN(
        wal::WalWriter writer,
        wal::WalWriter::Create(env(), wal_path, fingerprint, /*base_lsn=*/1));
    a.writer.emplace(std::move(writer));
  } else {
    // A hard I/O error scanning the log: without it durability cannot be
    // promised, so fail the load rather than run half-protected.
    return contents.status();
  }
  attach_.emplace(std::move(a));
  return Status::OK();
}

Result<StatementResult> Session::RunInsert(const InsertStmt& stmt) {
  MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* rel, db_.GetRelation(stmt.table));
  (void)rel;
  // One delta batch per statement: row-at-a-time application (and its
  // deterministic half-apply on a mid-statement error) is preserved by
  // ApplyDelta's fail-fast op loop.
  DeltaBatch batch;
  for (const auto& row : stmt.rows) {
    std::vector<CellSpec> cells;
    cells.reserve(row.size());
    for (const auto& cell : row) {
      if (!cell.is_orset) {
        cells.push_back(CellSpec::Certain(cell.value));
        continue;
      }
      if (cell.probs.empty()) {
        cells.push_back(CellSpec::UniformOrSet(cell.alternatives));
      } else {
        std::vector<Alternative> alts;
        for (size_t i = 0; i < cell.alternatives.size(); ++i) {
          alts.push_back({cell.alternatives[i], cell.probs[i]});
        }
        cells.push_back(CellSpec::OrSet(std::move(alts)));
      }
    }
    batch.Insert(stmt.table, std::move(cells));
  }
  MAYBMS_ASSIGN_OR_RETURN(DeltaEffects effects, ApplyDelta(batch));
  StatementResult result;
  result.message = StrFormat("inserted %zu tuple(s) into %s",
                             effects.tuples_inserted, stmt.table.c_str());
  return result;
}

Result<StatementResult> Session::RunSelect(const SelectStmt& stmt) {
  MAYBMS_ASSIGN_OR_RETURN(PlannedQuery q, PlanSelect(stmt, db_));
  MAYBMS_ASSIGN_OR_RETURN(PlanPtr plan,
                          Optimize(q.plan, db_, options_.optimizer));
  LiftedExecOptions lifted_opts;
  lifted_opts.eval = options_.exec;
  // Per-query copy of the confidence options with the session's
  // content-keyed cache attached: repeated queries over mostly-unchanged
  // world sets recompute only the clusters a delta dirtied.
  ConfidenceOptions conf_opts = options_.conf;
  conf_opts.cache = conf_cache();
  WsdDb answer;
  if (mapped_) {
    // Materialize only the shards/components the optimized plan can
    // touch, then run the lifted pipeline over that scratch database.
    MAYBMS_ASSIGN_OR_RETURN(WsdDb scratch,
                            mapped_->MaterializeForPlan(*plan, db_));
    MAYBMS_ASSIGN_OR_RETURN(answer,
                            ExecuteLifted(plan, scratch, lifted_opts));
  } else {
    MAYBMS_ASSIGN_OR_RETURN(answer, ExecuteLifted(plan, db_, lifted_opts));
  }
  StatementResult result;
  if (q.wants_ecount) {
    MAYBMS_ASSIGN_OR_RETURN(double ec,
                            ExpectedCount(answer, "result", conf_opts));
    Relation table("", Schema({{"ecount", ValueType::kDouble}}));
    table.AppendUnchecked({Value::Double(ec)});
    result.kind = StatementResult::Kind::kTable;
    result.table = std::move(table);
    return result;
  }
  if (q.wants_esum) {
    MAYBMS_ASSIGN_OR_RETURN(double es,
                            ExpectedSum(answer, "result", q.esum_column,
                                        conf_opts));
    Relation table("", Schema({{"esum", ValueType::kDouble}}));
    table.AppendUnchecked({Value::Double(es)});
    result.kind = StatementResult::Kind::kTable;
    result.table = std::move(table);
    return result;
  }
  if (q.wants_approx) {
    ApproxOptions opts = options_.approx;
    opts.cache = conf_cache();
    opts.epsilon = q.approx_eps;
    opts.delta = q.approx_delta;
    ApproxConfStats stats;
    MAYBMS_ASSIGN_OR_RETURN(Relation conf,
                            ApproxConfTable(answer, "result", opts, &stats));
    // Rename the trailing estimate/interval columns to the alias.
    Schema s = conf.schema();
    std::vector<Attribute> attrs = s.attrs();
    const size_t n = attrs.size();
    attrs[n - 3].name = q.prob_alias;
    attrs[n - 2].name = q.prob_alias + "_lo";
    attrs[n - 1].name = q.prob_alias + "_hi";
    Relation renamed(conf.name(), Schema(attrs));
    for (const auto& row : conf.rows()) renamed.AppendUnchecked(row);
    result.kind = StatementResult::Kind::kTable;
    result.table = std::move(renamed);
    result.message = StrFormat(
        "approx conf(ε=%g, δ=%g): %zu cluster(s) — %zu exact, %zu bracket, "
        "%zu sampled; %llu sample(s), %llu state(s), max half-width %.4g",
        opts.epsilon, opts.delta, stats.clusters, stats.exact_clusters,
        stats.bracket_clusters, stats.sampled_clusters,
        static_cast<unsigned long long>(stats.total_samples),
        static_cast<unsigned long long>(stats.total_states),
        stats.max_half_width);
    return result;
  }
  if (q.wants_prob) {
    MAYBMS_ASSIGN_OR_RETURN(Relation conf,
                            ConfTable(answer, "result", conf_opts));
    // Rename the trailing conf column to the requested alias.
    Schema s = conf.schema();
    std::vector<Attribute> attrs = s.attrs();
    attrs.back().name = q.prob_alias;
    Relation renamed(conf.name(), Schema(attrs));
    for (const auto& row : conf.rows()) renamed.AppendUnchecked(row);
    result.kind = StatementResult::Kind::kTable;
    result.table = std::move(renamed);
    return result;
  }
  switch (q.mode) {
    case SelectMode::kPossible: {
      MAYBMS_ASSIGN_OR_RETURN(
          Relation t, PossibleTuples(answer, "result", conf_opts));
      result.kind = StatementResult::Kind::kTable;
      result.table = std::move(t);
      return result;
    }
    case SelectMode::kCertain: {
      MAYBMS_ASSIGN_OR_RETURN(
          Relation t, CertainTuples(answer, "result", conf_opts));
      result.kind = StatementResult::Kind::kTable;
      result.table = std::move(t);
      return result;
    }
    case SelectMode::kWorldSet:
      result.kind = StatementResult::Kind::kWorldSet;
      result.world_set = std::move(answer);
      return result;
  }
  return Status::Internal("unreachable select mode");
}

Result<StatementResult> Session::RunEnforce(const EnforceStmt& stmt) {
  MAYBMS_RETURN_IF_ERROR(db_.GetRelation(stmt.table).status());
  Constraint c = [&] {
    switch (stmt.kind) {
      case EnforceStmt::Kind::kCheck:
        return Constraint::Domain(stmt.table, stmt.check);
      case EnforceStmt::Kind::kKey:
        return Constraint::Key(stmt.table, stmt.lhs);
      case EnforceStmt::Kind::kFd:
      default:
        return Constraint::FunctionalDependency(stmt.table, stmt.lhs,
                                                stmt.rhs);
    }
  }();
  const double log2_before = db_.Log2WorldCount();
  DeltaBatch batch;
  batch.Enforce(c);
  MAYBMS_ASSIGN_OR_RETURN(DeltaEffects effects, ApplyDelta(batch));
  StatementResult result;
  result.message = StrFormat(
      "enforced %s: removed probability mass %.6g, %zu component row(s) "
      "deleted; log2(worlds) %.4g -> %.4g",
      c.ToString().c_str(), effects.enforce_removed_mass,
      effects.enforce_rows_removed, log2_before, db_.Log2WorldCount());
  return result;
}

Result<DeltaEffects> Session::ApplyDelta(const DeltaBatch& batch) {
  if (mapped_ && !OverlayHolds(batch)) {
    MAYBMS_RETURN_IF_ERROR(EnsureResident());
  }
  if (!attach_) return db_.ApplyDelta(batch);
  if (!attach_->writer) {
    return Status::Unavailable(
        "the write-ahead log is detached after a failed checkpoint; run "
        "CHECKPOINT");
  }
  // Serialize + append + fsync BEFORE applying: an acknowledged batch is
  // durable; a failed serialize or append applies nothing.
  MAYBMS_ASSIGN_OR_RETURN(std::string payload, batch.Serialize());
  MAYBMS_RETURN_IF_ERROR(
      attach_->writer->Append(wal::RecordType::kDelta, payload).status());
  Result<DeltaEffects> effects = db_.ApplyDelta(batch);
  const size_t threshold = options_.durability.auto_checkpoint_records;
  if (!effects.ok()) {
    // Fold the half-applied batch into the snapshot at once, so a live
    // log never keeps a failing record (replay treats one as corruption
    // unless it is the log's last).
    CheckpointOrDetach();
  } else if (threshold > 0) {
    const uint64_t records = attach_->writer->record_count();
    const uint64_t due = attach_->next_auto_checkpoint > 0
                             ? attach_->next_auto_checkpoint
                             : threshold;
    if (records >= due) {
      // Non-fatal: the batch is durable in the log either way. A failure
      // is counted and retried one threshold later, so a save that keeps
      // failing does not re-serialize the database on every write.
      Status st = Checkpoint();
      if (!st.ok()) {
        ++checkpoint_failures_;
        last_checkpoint_error_ = std::move(st);
        if (attach_) attach_->next_auto_checkpoint = records + threshold;
      }
    }
  }
  return effects;
}

Result<StatementResult> Session::RunSet(const SetStmt& stmt) {
  MAYBMS_RETURN_IF_ERROR(SetOption(stmt.name, stmt.value));
  const Knob* knob = FindKnob(stmt.name);
  StatementResult result;
  result.message =
      StrFormat("set %s = %s", knob->name, knob->get(options_).c_str());
  return result;
}

Result<StatementResult> Session::RunDelete(const DeleteStmt& stmt) {
  MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* rel, db_.GetRelation(stmt.table));
  (void)rel;
  DeltaBatch batch;
  batch.EvictOldest(stmt.table, stmt.count);
  MAYBMS_ASSIGN_OR_RETURN(DeltaEffects effects, ApplyDelta(batch));
  StatementResult result;
  // A mapped session collects the components of evicted stored rows only
  // when it folds its overlay (CHECKPOINT or promotion).
  result.message = StrFormat(
      "evicted %zu tuple(s) from %s (%zu component(s) collected%s)",
      effects.tuples_evicted, stmt.table.c_str(),
      effects.removed_components.size(),
      mapped_ ? "; stored ones at the next checkpoint" : "");
  return result;
}

Result<StatementResult> Session::RunShow(const ShowStmt& stmt) {
  StatementResult result;
  switch (stmt.what) {
    case ShowStmt::What::kTables: {
      std::string out;
      for (const auto& name : db_.RelationNames()) {
        const WsdRelation* rel = db_.GetRelation(name).value();
        // A mapped relation's unevicted snapshot rows count too.
        out += rel->name() + " " + rel->schema().ToString() +
               StrFormat(" — %zu tuple template(s)\n",
                         rel->base_rows() + rel->NumTuples());
      }
      if (out.empty()) out = "(no tables)\n";
      result.message = std::move(out);
      return result;
    }
    case ShowStmt::What::kRelation: {
      MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* rel,
                              db_.GetRelation(stmt.relation));
      (void)rel;
      result.message = db_.ToString();
      return result;
    }
    case ShowStmt::What::kWorlds: {
      auto count = db_.WorldCountIfSmall(stmt.max_worlds);
      if (!count.has_value()) {
        result.message = StrFormat(
            "world-set too large to enumerate: 2^%.4g choice combinations\n",
            db_.Log2WorldCount());
        return result;
      }
      MAYBMS_ASSIGN_OR_RETURN(std::vector<World> worlds,
                              EnumerateWorlds(db_, stmt.max_worlds));
      auto merged = MergeEqualWorlds(std::move(worlds));
      std::string out =
          StrFormat("%zu distinct world(s):\n", merged.size());
      for (size_t i = 0; i < merged.size(); ++i) {
        out += StrFormat("--- world %zu (p = %.6g) ---\n", i + 1,
                         merged[i].prob);
        for (const auto& name : merged[i].catalog.Names()) {
          out += merged[i].catalog.Get(name).value()->ToString();
        }
      }
      result.message = std::move(out);
      return result;
    }
    case ShowStmt::What::kSettings: {
      Relation table("", Schema({{"setting", ValueType::kString},
                                 {"value", ValueType::kString}}));
      for (const Knob& k : kKnobs) {
        table.AppendUnchecked(
            {Value::String(k.name), Value::String(k.get(options_))});
      }
      result.kind = StatementResult::Kind::kTable;
      result.table = std::move(table);
      return result;
    }
  }
  return Status::Internal("unreachable show kind");
}

}  // namespace sql
}  // namespace maybms
