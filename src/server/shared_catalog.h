// SharedCatalog: one world-set database served to many sessions.
//
// Concurrency model (the server's heart):
//
//   Readers   take an epoch guard, load the currently published
//             `const WsdDb*` and copy it. The copy is cheap — WsdDb is
//             copy-on-write down to relation tuple vectors and
//             components — and fully snapshot-isolated: a reader's
//             SELECT/CONF runs against one immutable version no matter
//             how many writes commit meanwhile.
//
//   Writers   are serialized per target relation (a lock table keyed by
//             relation name; catalog-wide statements like SAVE/LOAD/
//             CHECKPOINT take the table exclusively), then funnel
//             through one commit mutex around the writer session — the
//             existing WAL appends-and-fsyncs *before* applying, so the
//             log order equals the commit order and durability
//             semantics are exactly the embedded engine's. After the
//             statement applies, a fresh COW copy of the database is
//             published by atomic pointer swap and the previous version
//             retires through epoch-based reclamation: it is destroyed
//             only after the last reader that could see it exits.
#ifndef MAYBMS_SERVER_SHARED_CATALOG_H_
#define MAYBMS_SERVER_SHARED_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "common/result.h"
#include "core/wsd.h"
#include "server/epoch.h"
#include "sql/ast.h"
#include "sql/session.h"

namespace maybms {
namespace server {

/// True for statement kinds a snapshot copy can answer (no catalog
/// mutation, nothing WAL-logged): SELECT, EXPLAIN, SHOW.
bool IsReadStatement(const sql::Statement& stmt);

class SharedCatalog {
 public:
  /// Starts from `initial` (e.g. a generated census WSD) and publishes
  /// it as version 0.
  explicit SharedCatalog(WsdDb initial = WsdDb());
  ~SharedCatalog();

  SharedCatalog(const SharedCatalog&) = delete;
  SharedCatalog& operator=(const SharedCatalog&) = delete;

  /// The authoritative writer session, for single-threaded setup before
  /// serving (attach durability via SAVE/LOAD, tune options, seed
  /// data). Call Publish() afterwards; never use while serving.
  sql::Session* setup_session() { return &writer_; }

  /// Publishes the writer session's current database as a new version.
  void Publish();

  /// A snapshot-isolated copy of the latest published version.
  WsdDb SnapshotCopy() const;

  /// Executes a mutating statement on the authoritative database and
  /// publishes the result. `stmt` must not be a read statement, and
  /// LOAD DATABASE ... MAPPED is rejected (a mapped session answers
  /// queries lazily from one mmap; served snapshots must be resident).
  Result<sql::StatementResult> ExecuteWrite(const sql::Statement& stmt);

  /// Monotone version counter (bumped by every Publish).
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  /// The writer session's failed automatic checkpoints and its WAL
  /// length, as of the last publish (the server's `.stats`).
  uint64_t checkpoint_failures() const {
    return checkpoint_failures_.load(std::memory_order_relaxed);
  }
  uint64_t wal_records() const {
    return wal_records_.load(std::memory_order_relaxed);
  }
  /// Catalog versions awaiting reclamation (for tests).
  size_t RetiredVersions() const { return epochs_.LimboSize(); }

 private:
  /// The relation a statement writes, or "" for catalog-wide ones.
  static std::string TargetRelation(const sql::Statement& stmt);
  /// Publishes writer_.db() as the next version. commit_mu_ held.
  void PublishLocked();

  mutable EpochManager epochs_;
  /// Owner of the version `published_` points at; written under
  /// commit_mu_, destroyed via epochs_ once safe.
  std::shared_ptr<const WsdDb> published_owner_;
  std::atomic<const WsdDb*> published_{nullptr};
  std::atomic<uint64_t> version_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
  std::atomic<uint64_t> wal_records_{0};

  /// Per-relation writers hold this shared + their relation's mutex;
  /// catalog-wide writers hold it exclusive.
  std::shared_mutex relation_locks_;
  std::mutex lock_table_mu_;  ///< guards lock_table_
  std::map<std::string, std::unique_ptr<std::mutex>> lock_table_;

  /// Serializes WAL-append + apply + publish — commit order must equal
  /// log order for replay to reproduce the database.
  std::mutex commit_mu_;
  sql::Session writer_;
};

}  // namespace server
}  // namespace maybms

#endif  // MAYBMS_SERVER_SHARED_CATALOG_H_
