// Session: the top-level entry point of the MayBMS engine. Owns a
// world-set database and executes query-language statements against it —
// the programmatic equivalent of the demo's console.
#ifndef MAYBMS_SQL_SESSION_H_
#define MAYBMS_SQL_SESSION_H_

#include <optional>
#include <string>
#include <vector>

#include <memory>

#include "common/result.h"
#include "core/approx_conf.h"
#include "core/confidence.h"
#include "core/delta.h"
#include "core/mapped_db.h"
#include "core/materialized_conf.h"
#include "core/serialize.h"
#include "core/wsd.h"
#include "ra/expr_compile.h"
#include "sql/ast.h"
#include "sql/optimizer.h"
#include "storage/io_env.h"
#include "storage/relation.h"
#include "storage/wal.h"

namespace maybms {
namespace sql {

/// Durability knobs. When the WAL is enabled, SAVE DATABASE (and LOAD
/// DATABASE of a saved snapshot) attaches the session to the snapshot
/// file: every subsequent mutation — a mutating statement or an
/// ApplyDelta batch — is appended to `<snapshot>.wal` as one serialized
/// DeltaBatch and fsynced *before* it is applied, so a crash loses at
/// most the mutation that never acknowledged. LOAD DATABASE replays any
/// log newer than the snapshot; CHECKPOINT (or the automatic threshold)
/// rewrites the snapshot and resets the log.
struct DurabilityOptions {
  /// Master switch; when false SAVE/LOAD never attach a log.
  bool wal_enabled = true;
  /// Checkpoint automatically once the log holds this many records
  /// (0 = only on explicit CHECKPOINT). A failed auto-checkpoint does
  /// not fail the mutation — the log keeps the data safe. It is counted
  /// (Session::checkpoint_failures, the server's `.stats`) and retried
  /// when the log has grown by this many records again, not on every
  /// write.
  size_t auto_checkpoint_records = 256;
};

/// Every session knob behind one aggregate. SQL `SET <knob> = <value>`
/// and `SHOW SETTINGS` address leaves by dotted name ("conf.num_threads",
/// "durability.wal_enabled", ...); see the knob registry in session.cc.
/// Settings are session-local and never reach the WAL.
struct SessionOptions {
  /// Probabilistic-aggregate lowering (PROB/POSSIBLE/CERTAIN/ECOUNT/
  /// ESUM): enumeration budget, cluster factorization, thread count.
  ConfidenceOptions conf;
  /// Anytime approximate confidence behind APPROX CONF(ε, δ): sampling
  /// seed and per-cluster budgets (the ε/δ pair comes from the query).
  ApproxOptions approx;
  /// Lifted query evaluation: compiled vectorized expression programs
  /// vs the row-at-a-time interpreter, and batch parallelism.
  ExecOptions exec;
  /// Cost-based plan optimizer (per-rule switches and a master off
  /// switch); applied to every SELECT and EXPLAIN.
  OptimizerOptions optimizer;
  /// WAL attachment and auto-checkpoint threshold.
  DurabilityOptions durability;
  /// Maintain the session's content-keyed confidence cache
  /// (core/materialized_conf.h) across queries: re-issued CONF/APPROX
  /// CONF/ECOUNT/ESUM recompute only clusters whose components a delta
  /// dirtied and replay the cheap combine for the rest. Results are
  /// bit-identical with and without.
  bool materialize_conf = true;
  /// Entry capacity of that cache (takes effect on the next query after
  /// a change).
  size_t materialize_conf_capacity = 8192;
};

/// What a statement produced.
struct StatementResult {
  enum class Kind {
    kMessage,   ///< DDL/DML acknowledgements, EXPLAIN text, ENFORCE stats
    kTable,     ///< a certain relation (prob/possible/certain/ecount/show)
    kWorldSet,  ///< a world-set answer (plain SELECT)
  };
  Kind kind = Kind::kMessage;
  std::string message;
  Relation table;
  WsdDb world_set;  ///< contains relation "result"

  /// Renders the result for a console.
  std::string ToDisplayString(size_t max_rows = 50) const;
};

/// An interactive session over one world-set database.
class Session {
 public:
  Session() = default;
  /// Starts from an existing database (e.g. a generated census WSD).
  explicit Session(WsdDb db) : db_(std::move(db)) {}

  WsdDb& db() { return db_; }
  const WsdDb& db() const { return db_; }

  /// All session knobs, one aggregate (see SessionOptions).
  const SessionOptions& options() const { return options_; }
  SessionOptions& mutable_options() { return options_; }

  /// Assigns one knob by its dotted name ("conf.num_threads" = 4,
  /// "optimizer.enable" = false, ...) — the engine of SQL SET. Unknown
  /// names and type mismatches are InvalidArgument.
  Status SetOption(const std::string& name, const Value& value);
  /// Hash of every knob's current value: result caches keyed on
  /// statement text must also key on this, since settings change what a
  /// query returns (e.g. approx.seed).
  uint64_t SettingsFingerprint() const;

  /// Applies one delta batch (core/delta.h) — the streaming ingest entry
  /// point, and the one door every mutating statement goes through too.
  /// With a durable attachment the serialized batch is appended and
  /// fsynced as one wal::RecordType::kDelta record BEFORE applying, so
  /// an acknowledged batch is durable and a batch that cannot be logged
  /// applies nothing. A logged batch that then fails to apply keeps its
  /// deterministic partial effect and is checkpointed at once, so a live
  /// log never holds a failing record; if that checkpoint fails the
  /// session drops its WAL writer and refuses mutations until a
  /// CHECKPOINT succeeds.
  Result<DeltaEffects> ApplyDelta(const DeltaBatch& batch);

  /// The session's content-keyed confidence cache, created lazily;
  /// nullptr while options().materialize_conf is false. Exposed for
  /// stats (hits/misses) and tests.
  MaterializedConf* conf_cache();

  /// File-I/O environment for snapshots, mapped loads and the WAL; null
  /// resets to Env::Default(). Set before SAVE/LOAD — existing
  /// attachments keep the env they were opened with.
  void set_env(Env* env) { env_ = env; }
  Env* env() const { return env_ ? env_ : Env::Default(); }

  /// True when the session is bound to a snapshot + WAL pair.
  bool has_durable_attachment() const { return attach_.has_value(); }
  /// The attached snapshot path (empty when none).
  std::string attached_path() const {
    return attach_ ? attach_->db_path : std::string();
  }
  /// Records currently in the attached log (0 when none).
  uint64_t wal_record_count() const {
    return attach_ && attach_->writer ? attach_->writer->record_count() : 0;
  }

  /// Rewrites the attached snapshot from current state and resets its
  /// log — the SQL CHECKPOINT statement's engine. Fails without an
  /// attachment. A MAPPED session writes its folded overlay (see
  /// EnsureResident), then maps the new file with an empty overlay, so
  /// checkpoints, automatic ones included, keep it mapped.
  Status Checkpoint();

  /// Automatic checkpoints that failed since the session started, and
  /// the last one's error (OK when none failed).
  uint64_t checkpoint_failures() const { return checkpoint_failures_; }
  const Status& last_checkpoint_error() const {
    return last_checkpoint_error_;
  }

  /// True while the session serves queries from a mapped snapshot
  /// (LOAD DATABASE ... MAPPED) instead of the resident database.
  bool is_mapped() const { return mapped_.has_value(); }
  /// The mapped snapshot, for resident-byte accounting and
  /// materialization stats; nullptr when not mapped. While mapped, db()
  /// is the write overlay on top of it, not the whole database.
  const MappedWsdDb* mapped_db() const {
    return mapped_ ? &*mapped_ : nullptr;
  }

  /// Parses and executes one statement.
  Result<StatementResult> Execute(const std::string& statement);

  /// Executes a ';'-separated script, stopping at the first error.
  Result<std::vector<StatementResult>> ExecuteScript(const std::string& sql);

  /// Executes an already-parsed statement.
  Result<StatementResult> ExecuteParsed(const Statement& stmt);

 private:
  /// The snapshot + WAL pair the session is bound to.
  struct DurableAttachment {
    std::string db_path;
    std::string wal_path;
    SnapshotFormat format = SnapshotFormat::kBinary;
    std::optional<wal::WalWriter> writer;
    /// Log length at which the next automatic checkpoint runs; 0 = at
    /// the threshold. A failure moves it one threshold further.
    uint64_t next_auto_checkpoint = 0;
  };

  Result<StatementResult> RunSelect(const SelectStmt& stmt);
  Result<StatementResult> RunInsert(const InsertStmt& stmt);
  Result<StatementResult> RunEnforce(const EnforceStmt& stmt);
  Result<StatementResult> RunSet(const SetStmt& stmt);
  Result<StatementResult> RunDelete(const DeleteStmt& stmt);
  Result<StatementResult> RunShow(const ShowStmt& stmt);
  Result<StatementResult> RunSaveDb(const SaveDbStmt& stmt);
  Result<StatementResult> RunLoadDb(const LoadDbStmt& stmt);
  /// Promotes a MAPPED session to resident: the snapshot is decoded
  /// whole and the write overlay folded into it (MappedWsdDb::
  /// MaterializeAll with the overlay), into db_, and the mapping is
  /// dropped. The folded database equals the one an eager session that
  /// ran the same statements holds. Statements the overlay cannot hold
  /// run this first: ENFORCE, REPAIR KEY, DROP TABLE, SAVE DATABASE,
  /// SHOW of a relation or of the worlds, and delta batches with
  /// reweight, set-cell, repair, enforce or drop ops. INSERT, DELETE ...
  /// OLDEST, CREATE TABLE and CHECKPOINT keep the session mapped. A
  /// non-durable mapped session has no checkpoint, so its overlay grows
  /// until a statement promotes it.
  Status EnsureResident();
  /// EnsureResident over explicit state (`*mapped`, and `*db` its
  /// overlay), for log replay before the load installs them.
  static Status Promote(std::optional<MappedWsdDb>* mapped, WsdDb* db);
  /// Serializes `db` to `path` atomically; returns the bytes'
  /// fingerprint.
  Result<uint64_t> WriteSnapshot(const WsdDb& db, const std::string& path,
                                 SnapshotFormat format, uint64_t* out_bytes);
  /// Checkpoints now; on failure drops the WAL writer, so nothing more
  /// is acknowledged until a CHECKPOINT succeeds.
  void CheckpointOrDetach();
  /// Binds the session to `db_path` + `wal_path` after a load: continues
  /// a matching log (tail-repaired), or starts a fresh one when the log
  /// is missing, corrupt, or from another snapshot generation.
  Status AttachForLoad(const std::string& db_path, const std::string& wal_path,
                       uint64_t fingerprint, SnapshotFormat format,
                       const Result<wal::WalContents>& contents);
  /// Decodes and applies a log's kDelta records to `db`, the freshly
  /// loaded snapshot (not yet the session's catalog, so nothing is
  /// re-logged). For a MAPPED load `db` is the empty overlay of
  /// `*mapped`: records it can hold replay into it, and the first one it
  /// cannot promotes (Promote), as the live statement did. A record that does not decode, or that fails to apply
  /// anywhere but last, is a corruption error naming its LSN. A failing
  /// last record is the one a crash caught before its checkpoint: its
  /// deterministic partial effect is kept and *fold_now is set, asking
  /// the caller to checkpoint at once. A log holding any legacy
  /// kStatement record goes through ReplayLegacyWal and sets *fold_now.
  static Status ReplayWal(const std::vector<wal::WalRecord>& records,
                          std::optional<MappedWsdDb>* mapped, WsdDb* db,
                          bool* fold_now);
  /// The one-time upgrade of a log written by older builds, which logged
  /// SQL statements as text: replays every record through a temporary
  /// non-durable session, dropping per-record errors as those builds
  /// did (they logged statements that then failed).
  static void ReplayLegacyWal(const std::vector<wal::WalRecord>& records,
                              WsdDb* db);

  WsdDb db_;
  /// Engaged after LOAD DATABASE ... MAPPED. db_ is then the write
  /// overlay: it starts as the snapshot's skeleton (schemas, unevicted
  /// row counts as WsdRelation::base_rows, owner counter and component-id
  /// allocation point) and WsdDb::ApplyDelta applies inserts, evictions
  /// and creates to it. SELECTs materialize per-query scratch databases
  /// from the map with the overlay merged in.
  std::optional<MappedWsdDb> mapped_;
  SessionOptions options_;
  /// Lazily created by conf_cache(); recreated when
  /// materialize_conf_capacity changes.
  std::unique_ptr<MaterializedConf> conf_cache_;
  size_t conf_cache_capacity_ = 0;
  Env* env_ = nullptr;
  std::optional<DurableAttachment> attach_;
  uint64_t checkpoint_failures_ = 0;
  Status last_checkpoint_error_;
};

}  // namespace sql
}  // namespace maybms

#endif  // MAYBMS_SQL_SESSION_H_
