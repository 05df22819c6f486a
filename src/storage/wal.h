// Write-ahead log of logical mutations, the durability half of the
// snapshot + WAL pair (docs/SNAPSHOT_FORMAT.md has the normative spec).
//
// A WAL is bound to one snapshot file via a content fingerprint stored
// in its header: recovery replays the log only when the fingerprint
// matches the snapshot actually on disk, so a log left behind by an
// older snapshot generation is discarded instead of double-applied.
// Records are sequence-numbered (consecutive LSNs from the header's
// base) and individually checksummed; the reader accepts the longest
// valid prefix and reports the torn tail, which the appender truncates
// before continuing — the standard torn-write repair.
#ifndef MAYBMS_STORAGE_WAL_H_
#define MAYBMS_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/io_env.h"

namespace maybms {
namespace wal {

/// First bytes of every WAL file.
constexpr char kWalMagic[] = "MAYBMS-WAL 1\n";

/// Canonical log location for a snapshot: `<snapshot>.wal`, in the same
/// directory so the atomic-rename + dir-sync ordering arguments hold.
inline std::string WalPathFor(const std::string& snapshot_path) {
  return snapshot_path + ".wal";
}

enum class RecordType : uint8_t {
  /// Legacy, read-only: the SQL text of one mutating statement, as
  /// older builds logged it. LOAD upgrades such a log once.
  kStatement = 1,
  /// payload = a serialized DeltaBatch (core/delta.h); the only kind
  /// the engine writes.
  kDelta = 2,
};

struct WalRecord {
  uint64_t lsn = 0;
  RecordType type = RecordType::kDelta;
  std::string payload;
};

/// Result of scanning a WAL file.
struct WalContents {
  /// False when the file is missing a valid header (wrong magic, bad
  /// header checksum, truncated) — treat as "no log".
  bool usable = false;
  uint64_t snapshot_fingerprint = 0;
  uint64_t base_lsn = 1;
  std::vector<WalRecord> records;  ///< the longest valid prefix
  uint64_t valid_bytes = 0;        ///< byte length of that prefix
  bool torn_tail = false;          ///< bytes past the prefix were present
};

/// Content fingerprint binding a WAL to a snapshot file. Hashes the size
/// plus the full bytes of small files; large files are sampled in fixed
/// stripes so a mapped open does not have to page in the whole snapshot.
/// (Sampling is sound here: the engine always resets the WAL when it
/// writes a snapshot, so the fingerprint only arbitrates "is this log
/// from this exact save?", not general integrity — the per-section
/// checksums do that.)
uint64_t SnapshotFingerprint(std::string_view bytes);

/// Scans the WAL at `path`. I/O errors (including NotFound) surface as
/// statuses; a present-but-corrupt file comes back usable=false.
Result<WalContents> ReadWal(Env* env, const std::string& path);

/// Appender. Create() atomically replaces the log with a fresh header;
/// OpenForAppend() continues an existing log after tail repair. Every
/// Append is fsynced before it returns — a record handed back to the
/// caller is durable. After any append failure the writer is poisoned
/// (the on-disk tail is suspect) and refuses further appends until the
/// log is recreated by the next checkpoint.
class WalWriter {
 public:
  static Result<WalWriter> Create(Env* env, const std::string& path,
                                  uint64_t snapshot_fingerprint,
                                  uint64_t base_lsn);
  static Result<WalWriter> OpenForAppend(Env* env, const std::string& path,
                                         const WalContents& contents);

  WalWriter(WalWriter&&) = default;
  WalWriter& operator=(WalWriter&&) = default;

  /// Appends and fsyncs one record; returns its LSN.
  Result<uint64_t> Append(RecordType type, std::string_view payload);

  const std::string& path() const { return path_; }
  uint64_t next_lsn() const { return next_lsn_; }
  /// Records appended or recovered since the header's base LSN.
  uint64_t record_count() const { return next_lsn_ - base_lsn_; }
  bool poisoned() const { return poisoned_; }

 private:
  WalWriter(Env* env, std::string path, std::unique_ptr<WritableFile> file,
            uint64_t base_lsn, uint64_t next_lsn)
      : env_(env),
        path_(std::move(path)),
        file_(std::move(file)),
        base_lsn_(base_lsn),
        next_lsn_(next_lsn) {}

  Env* env_;
  std::string path_;
  std::unique_ptr<WritableFile> file_;
  uint64_t base_lsn_ = 1;
  uint64_t next_lsn_ = 1;
  bool poisoned_ = false;
};

}  // namespace wal
}  // namespace maybms

#endif  // MAYBMS_STORAGE_WAL_H_
