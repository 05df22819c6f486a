// Injectable file-I/O environment: the seam between the durability
// subsystem (atomic snapshots, the write-ahead log, mapped loads) and
// the operating system.
//
// Production code talks to Env::Default(), a POSIX implementation with
// EINTR retry and errno context in every error message. Tests talk to a
// FaultInjectingEnv — an in-memory filesystem with explicit durability
// semantics: appended bytes are volatile until Sync(), namespace
// operations (create/rename/remove/truncate) are volatile until
// SyncDir(), and Crash()/Recover() discards exactly the volatile state
// (tearing the final un-synced write and applying a random subset of
// un-synced namespace operations, the way a real kernel may persist
// metadata out of order). It can also fail the Nth I/O call outright,
// inject transient (retryable) faults, and flip individual durable
// bytes to exercise checksum paths.
#ifndef MAYBMS_STORAGE_IO_ENV_H_
#define MAYBMS_STORAGE_IO_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace maybms {

/// An open file being written sequentially (the WAL, snapshot temps).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  /// Makes every appended byte durable (fdatasync). Does NOT make the
  /// file's directory entry durable — that is Env::SyncDir's job.
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// A whole file opened for random-access reads (mapped snapshots). The
/// view stays valid for the lifetime of the object.
class RandomAccessImage {
 public:
  virtual ~RandomAccessImage() = default;
  virtual std::string_view bytes() const = 0;
  virtual const std::string& path() const = 0;
};

/// An image over bytes held in memory (a stream's contents, the
/// fault-injection filesystem's files); `path` only labels errors.
std::unique_ptr<RandomAccessImage> NewStringImage(std::string bytes,
                                                  std::string path);

/// The injectable filesystem interface. All paths are plain strings;
/// implementations are not required to canonicalize them, so callers
/// must use one spelling per file.
class Env {
 public:
  virtual ~Env() = default;

  /// The production POSIX environment (a process-wide singleton).
  static Env* Default();

  /// Opens `path` for writing: truncates (creating if needed) when
  /// `truncate`, else appends to the existing file.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) = 0;

  /// Reads the whole file into a string.
  virtual Result<std::string> ReadFileToString(const std::string& path) = 0;

  /// Opens the whole file for random-access reads (mmap in production).
  virtual Result<std::unique_ptr<RandomAccessImage>> MapFile(
      const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;

  /// Makes the directory entries of `dir` durable (fsync of the
  /// directory). Pass the directory itself, not a file inside it.
  virtual Status SyncDir(const std::string& dir) = 0;

  /// Backoff hook for transient-fault retry: sleeps in production, is a
  /// no-op in tests (keeps fault-injection sweeps fast).
  virtual void BackoffBeforeRetry(int attempt);
};

/// Directory part of `path` ("." when it has none).
std::string ParentDir(const std::string& path);

/// True for errors worth retrying with backoff (kUnavailable).
inline bool IsRetryable(const Status& s) {
  return s.code() == StatusCode::kUnavailable;
}

/// Runs `fn` up to `max_attempts` times while it fails with a retryable
/// (transient) error, backing off between attempts; returns the first
/// non-retryable status or the last failure.
template <typename Fn>
Status WithRetry(Env* env, int max_attempts, Fn&& fn) {
  Status st;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) env->BackoffBeforeRetry(attempt);
    st = fn();
    if (!IsRetryable(st)) return st;
  }
  return st;
}

/// Atomically replaces `path` with `contents`: writes `path`.tmp, syncs
/// it, renames over `path`, and syncs the parent directory, so a crash
/// at any point leaves either the old file or the new one — never a
/// torn mix. Transient faults are retried with bounded backoff.
Status AtomicWriteFile(Env* env, const std::string& path,
                       std::string_view contents);

// --- fault injection --------------------------------------------------------

/// Which injected fault the FaultInjectingEnv raises when a scheduled
/// operation index comes up.
struct FaultPlan {
  /// Fail the I/O call with this 0-based operation index. -1 = never.
  int64_t fail_at_op = -1;
  /// Whether that failure is transient (kUnavailable — succeeds when the
  /// caller retries) or hard (kIOError — keeps failing).
  bool fail_transient = false;
  /// Enter the "crashed" state at this operation index: the call and
  /// every later one fail with kIOError until Recover(). -1 = never.
  int64_t crash_at_op = -1;
};

/// In-memory filesystem with explicit durability semantics; see the
/// file comment. Not thread-safe (one test driver at a time).
class FaultInjectingEnv : public Env {
 public:
  FaultInjectingEnv() = default;

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::string> ReadFileToString(const std::string& path) override;
  Result<std::unique_ptr<RandomAccessImage>> MapFile(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Status SyncDir(const std::string& dir) override;
  void BackoffBeforeRetry(int attempt) override;

  /// Installs the fault plan; operation counting continues (the indices
  /// are absolute, compared against op_count()).
  void set_plan(const FaultPlan& plan) { plan_ = plan; }
  /// I/O calls observed so far (ticked whether or not they failed).
  int64_t op_count() const { return op_count_; }
  /// True once crash_at_op has triggered (and until Recover()).
  bool crashed() const { return crashed_; }
  /// Number of transparent retries callers performed after transient
  /// faults (for asserting the backoff path ran).
  int64_t transient_retries_observed() const { return transient_retries_; }

  /// Simulates the machine dying right now: every open handle becomes
  /// invalid and subsequent calls fail with kIOError until Recover().
  void Crash() { crashed_ = true; }

  /// Computes the post-crash filesystem and leaves the "crashed" state:
  /// synced bytes of surviving files are kept; un-synced appended bytes
  /// are torn to a random prefix; a random subset of the un-synced
  /// namespace operations is applied (metadata may persist out of
  /// order); everything else is lost.
  void Recover(Rng* rng);

  /// Flips one byte of the file's durable content (corruption injection
  /// for checksum paths). The offset must be in range.
  Status MutateFileByte(const std::string& path, uint64_t offset);

  /// Current visible content of `path` (synced + unsynced), for
  /// assertions. Fails with kNotFound when absent.
  Result<std::string> VisibleContent(const std::string& path);

 private:
  friend class FaultWritableFile;

  struct Inode {
    std::string synced;    ///< durable across Crash() (if a name survives)
    std::string unsynced;  ///< appended since the last Sync()
  };
  using InodePtr = std::shared_ptr<Inode>;

  /// One not-yet-dir-synced namespace mutation.
  struct PendingOp {
    enum class Kind { kLink, kUnlink };
    Kind kind = Kind::kLink;
    std::string path;
    InodePtr inode;  ///< kLink target
  };

  /// Ticks the op counter and raises any scheduled fault. `what` and
  /// `path` go into the error message.
  Status OnOp(const char* what, const std::string& path);
  /// Marks the namespace entry `path` -> `inode` (or removal) pending
  /// until the parent directory is synced.
  void AddPending(PendingOp::Kind kind, const std::string& path,
                  InodePtr inode);

  std::map<std::string, InodePtr> live_;     ///< what operations see now
  std::map<std::string, InodePtr> durable_;  ///< namespace after dir syncs
  std::vector<PendingOp> pending_;           ///< volatile namespace ops
  FaultPlan plan_;
  int64_t op_count_ = 0;
  int64_t transient_retries_ = 0;
  int64_t last_failed_op_ = -1;
  bool crashed_ = false;
  /// Bumped by Recover(); open handles from an older generation fail.
  uint64_t generation_ = 0;
};

}  // namespace maybms

#endif  // MAYBMS_STORAGE_IO_ENV_H_
