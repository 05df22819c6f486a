#include "server/shared_catalog.h"

#include <utility>

#include "common/logging.h"

namespace maybms {
namespace server {

bool IsReadStatement(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
    case sql::Statement::Kind::kExplain:
    case sql::Statement::Kind::kShow:
      return true;
    default:
      return false;
  }
}

SharedCatalog::SharedCatalog(WsdDb initial) : writer_(std::move(initial)) {
  Publish();
}

SharedCatalog::~SharedCatalog() {
  // Readers are gone by contract (the server joins its workers before
  // destroying the catalog); drop the published version so the limbo
  // list is the only owner left, then let members unwind.
}

void SharedCatalog::Publish() {
  std::lock_guard<std::mutex> lock(commit_mu_);
  PublishLocked();
}

void SharedCatalog::PublishLocked() {
  auto next = std::make_shared<const WsdDb>(writer_.db());
  const WsdDb* raw = next.get();
  std::shared_ptr<const WsdDb> old = std::move(published_owner_);
  published_owner_ = std::move(next);
  published_.store(raw, std::memory_order_seq_cst);
  version_.fetch_add(1, std::memory_order_acq_rel);
  if (old != nullptr) epochs_.Retire(std::move(old));
  checkpoint_failures_.store(writer_.checkpoint_failures(),
                             std::memory_order_relaxed);
  wal_records_.store(writer_.wal_record_count(), std::memory_order_relaxed);
}

WsdDb SharedCatalog::SnapshotCopy() const {
  EpochManager::Guard guard(&epochs_);
  const WsdDb* v = published_.load(std::memory_order_seq_cst);
  return WsdDb(*v);  // COW: shares tuple vectors and components
}

std::string SharedCatalog::TargetRelation(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kCreateTable:
      return stmt.create_table->name;
    case sql::Statement::Kind::kInsert:
      return stmt.insert->table;
    case sql::Statement::Kind::kDropTable:
      return stmt.drop_table->name;
    case sql::Statement::Kind::kEnforce:
      return stmt.enforce->table;
    case sql::Statement::Kind::kRepair:
      return stmt.repair->table;
    case sql::Statement::Kind::kDelete:
      return stmt.delete_stmt->table;
    default:
      return std::string();  // SAVE/LOAD/CHECKPOINT: catalog-wide
  }
}

Result<sql::StatementResult> SharedCatalog::ExecuteWrite(
    const sql::Statement& stmt) {
  MAYBMS_CHECK(!IsReadStatement(stmt)) << "read routed to ExecuteWrite";
  if (stmt.kind == sql::Statement::Kind::kSet) {
    // Settings are session-local; applying one to the shared writer
    // would silently change every subsequent commit's semantics.
    return Status::Unsupported(
        "SET is session-local; it must run on the requesting session, "
        "not the shared writer");
  }
  if (stmt.kind == sql::Statement::Kind::kLoadDb && stmt.load_db->mapped) {
    return Status::Unsupported(
        "LOAD DATABASE ... MAPPED is not available on the server; "
        "load eagerly (snapshots served to sessions must be resident)");
  }

  const std::string target = TargetRelation(stmt);
  if (target.empty()) {
    // Catalog-wide: exclusive against every per-relation writer.
    std::unique_lock<std::shared_mutex> excl(relation_locks_);
    std::lock_guard<std::mutex> commit(commit_mu_);
    auto result = writer_.ExecuteParsed(stmt);
    PublishLocked();
    return result;
  }

  std::shared_lock<std::shared_mutex> shared(relation_locks_);
  std::mutex* rel_mu;
  {
    std::lock_guard<std::mutex> lock(lock_table_mu_);
    std::unique_ptr<std::mutex>& slot = lock_table_[target];
    if (slot == nullptr) slot = std::make_unique<std::mutex>();
    rel_mu = slot.get();
  }
  std::lock_guard<std::mutex> rel_lock(*rel_mu);
  // ENFORCE can merge components shared with other relations' tuples
  // and REPAIR allocates component ids — both read/write state beyond
  // the target relation. The commit mutex already covers them: every
  // write to the authoritative database happens under it, in WAL order.
  std::lock_guard<std::mutex> commit(commit_mu_);
  auto result = writer_.ExecuteParsed(stmt);
  PublishLocked();
  return result;
}

}  // namespace server
}  // namespace maybms
