#include "storage/io_env.h"

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/string_util.h"
#include "storage/mmap_file.h"

namespace maybms {

namespace {

/// errno -> Status with full context: operation, path, strerror text.
Status ErrnoStatus(const char* op, const std::string& path, int err) {
  std::string msg =
      StrFormat("%s '%s': %s (errno %d)", op, path.c_str(),
                std::strerror(err), err);
  if (err == ENOENT) return Status::NotFound(std::move(msg));
  if (err == EAGAIN || err == EWOULDBLOCK || err == EBUSY) {
    return Status::Unavailable(std::move(msg));
  }
  return Status::IOError(std::move(msg));
}

int OpenRetryingEintr(const char* path, int flags, mode_t mode = 0644) {
  int fd;
  do {
    fd = ::open(path, flags, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

// --- POSIX implementation ---------------------------------------------------

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write", path_, errno);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    int rc;
    do {
      rc = ::fdatasync(fd_);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) return ErrnoStatus("fdatasync", path_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close", path_, errno);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixImage : public RandomAccessImage {
 public:
  explicit PosixImage(MmapFile file) : file_(std::move(file)) {}
  std::string_view bytes() const override { return file_.bytes(); }
  const std::string& path() const override { return file_.path(); }

 private:
  MmapFile file_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : O_APPEND);
    int fd = OpenRetryingEintr(path.c_str(), flags);
    if (fd < 0) return ErrnoStatus("open for write", path, errno);
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
  }

  Result<std::string> ReadFileToString(const std::string& path) override {
    int fd = OpenRetryingEintr(path.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoStatus("open for read", path, errno);
    std::string out;
    char buf[1 << 16];
    for (;;) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        int err = errno;
        ::close(fd);
        return ErrnoStatus("read", path, err);
      }
      if (n == 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return out;
  }

  Result<std::unique_ptr<RandomAccessImage>> MapFile(
      const std::string& path) override {
    MAYBMS_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
    return std::unique_ptr<RandomAccessImage>(new PosixImage(std::move(file)));
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return ErrnoStatus("stat", path, errno);
    }
    return static_cast<uint64_t>(st.st_size);
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename", from + "' -> '" + to, errno);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink", path, errno);
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    int rc;
    do {
      rc = ::truncate(path.c_str(), static_cast<off_t>(size));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) return ErrnoStatus("truncate", path, errno);
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    int fd = OpenRetryingEintr(dir.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoStatus("open dir", dir, errno);
    int rc;
    do {
      rc = ::fsync(fd);
    } while (rc != 0 && errno == EINTR);
    int err = errno;
    ::close(fd);
    // Some filesystems reject fsync on directories; the rename itself is
    // then as durable as that filesystem can make it.
    if (rc != 0 && err != EINVAL && err != ENOTSUP && err != EROFS) {
      return ErrnoStatus("fsync dir", dir, err);
    }
    return Status::OK();
  }
};

}  // namespace

void Env::BackoffBeforeRetry(int attempt) {
  // 1ms, 2ms, 4ms, ... capped at 32ms: enough to ride out EAGAIN-class
  // hiccups without stalling a failing save for seconds.
  int shift = attempt < 6 ? attempt : 6;
  ::usleep(static_cast<useconds_t>(1000u << shift));
}

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status AtomicWriteFile(Env* env, const std::string& path,
                       std::string_view contents) {
  const std::string tmp = path + ".tmp";
  return WithRetry(env, 4, [&]() -> Status {
    MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                            env->NewWritableFile(tmp, /*truncate=*/true));
    Status st = f->Append(contents);
    if (st.ok()) st = f->Sync();
    Status close_st = f->Close();
    if (st.ok()) st = close_st;
    if (!st.ok()) return st;
    MAYBMS_RETURN_IF_ERROR(env->RenameFile(tmp, path));
    return env->SyncDir(ParentDir(path));
  });
}

// --- fault injection --------------------------------------------------------

/// Write handle over an in-memory inode; invalidated by Recover().
/// Namespace-scope (not anonymous) so the friend declaration in
/// FaultInjectingEnv applies.
class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultInjectingEnv* env, uint64_t generation,
                    std::shared_ptr<FaultInjectingEnv::Inode> inode,
                    std::string path)
      : env_(env),
        generation_(generation),
        inode_(std::move(inode)),
        path_(std::move(path)) {}

  Status Append(std::string_view data) override {
    MAYBMS_RETURN_IF_ERROR(Check("write"));
    inode_->unsynced.append(data.data(), data.size());
    return Status::OK();
  }

  Status Sync() override {
    MAYBMS_RETURN_IF_ERROR(Check("fdatasync"));
    inode_->synced += inode_->unsynced;
    inode_->unsynced.clear();
    return Status::OK();
  }

  Status Close() override { return Status::OK(); }

 private:
  Status Check(const char* what) {
    if (generation_ != env_->generation_) {
      return Status::IOError(StrFormat(
          "%s '%s': stale file handle (crashed before this write)", what,
          path_.c_str()));
    }
    return env_->OnOp(what, path_);
  }

  FaultInjectingEnv* env_;
  uint64_t generation_;
  std::shared_ptr<FaultInjectingEnv::Inode> inode_;
  std::string path_;
};

namespace {

class StringImage : public RandomAccessImage {
 public:
  StringImage(std::string bytes, std::string path)
      : bytes_(std::move(bytes)), path_(std::move(path)) {}
  std::string_view bytes() const override { return bytes_; }
  const std::string& path() const override { return path_; }

 private:
  std::string bytes_;
  std::string path_;
};

}  // namespace

std::unique_ptr<RandomAccessImage> NewStringImage(std::string bytes,
                                                  std::string path) {
  return std::make_unique<StringImage>(std::move(bytes), std::move(path));
}

Status FaultInjectingEnv::OnOp(const char* what, const std::string& path) {
  if (crashed_) {
    return Status::IOError(
        StrFormat("%s '%s': injected crash (machine down)", what,
                  path.c_str()));
  }
  const int64_t idx = op_count_++;
  if (last_failed_op_ >= 0 && idx == last_failed_op_ + 1) {
    ++transient_retries_;
    last_failed_op_ = -1;
  }
  if (plan_.crash_at_op == idx) {
    crashed_ = true;
    return Status::IOError(
        StrFormat("%s '%s': injected crash at op %lld", what, path.c_str(),
                  static_cast<long long>(idx)));
  }
  if (plan_.fail_at_op == idx) {
    std::string msg = StrFormat("%s '%s': injected %s fault at op %lld", what,
                                path.c_str(),
                                plan_.fail_transient ? "transient" : "hard",
                                static_cast<long long>(idx));
    if (plan_.fail_transient) {
      last_failed_op_ = idx;
      return Status::Unavailable(std::move(msg));
    }
    return Status::IOError(std::move(msg));
  }
  return Status::OK();
}

void FaultInjectingEnv::AddPending(PendingOp::Kind kind,
                                   const std::string& path, InodePtr inode) {
  pending_.push_back({kind, path, std::move(inode)});
}

Result<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  MAYBMS_RETURN_IF_ERROR(OnOp("open for write", path));
  InodePtr inode;
  auto it = live_.find(path);
  if (truncate || it == live_.end()) {
    inode = std::make_shared<Inode>();
    live_[path] = inode;
    AddPending(PendingOp::Kind::kLink, path, inode);
  } else {
    inode = it->second;
  }
  return std::unique_ptr<WritableFile>(
      new FaultWritableFile(this, generation_, inode, path));
}

Result<std::string> FaultInjectingEnv::ReadFileToString(
    const std::string& path) {
  MAYBMS_RETURN_IF_ERROR(OnOp("open for read", path));
  auto it = live_.find(path);
  if (it == live_.end()) {
    return Status::NotFound(
        StrFormat("open for read '%s': no such file", path.c_str()));
  }
  return it->second->synced + it->second->unsynced;
}

Result<std::unique_ptr<RandomAccessImage>> FaultInjectingEnv::MapFile(
    const std::string& path) {
  MAYBMS_RETURN_IF_ERROR(OnOp("map", path));
  auto it = live_.find(path);
  if (it == live_.end()) {
    return Status::NotFound(StrFormat("map '%s': no such file", path.c_str()));
  }
  return NewStringImage(it->second->synced + it->second->unsynced, path);
}

bool FaultInjectingEnv::FileExists(const std::string& path) {
  return !crashed_ && live_.count(path) > 0;
}

Result<uint64_t> FaultInjectingEnv::FileSize(const std::string& path) {
  MAYBMS_RETURN_IF_ERROR(OnOp("stat", path));
  auto it = live_.find(path);
  if (it == live_.end()) {
    return Status::NotFound(StrFormat("stat '%s': no such file", path.c_str()));
  }
  return static_cast<uint64_t>(it->second->synced.size() +
                               it->second->unsynced.size());
}

Status FaultInjectingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  MAYBMS_RETURN_IF_ERROR(OnOp("rename", from));
  auto it = live_.find(from);
  if (it == live_.end()) {
    return Status::NotFound(
        StrFormat("rename '%s': no such file", from.c_str()));
  }
  InodePtr inode = it->second;
  live_.erase(it);
  live_[to] = inode;
  // A rename is atomic: either both effects persist or neither, so it is
  // one pending op (kLink carries the unlink of `from` implicitly via
  // the recorded path pair encoded as "to\nfrom" — see Recover).
  pending_.push_back({PendingOp::Kind::kLink, to + '\n' + from, inode});
  return Status::OK();
}

Status FaultInjectingEnv::RemoveFile(const std::string& path) {
  MAYBMS_RETURN_IF_ERROR(OnOp("unlink", path));
  if (live_.erase(path) == 0) {
    return Status::NotFound(
        StrFormat("unlink '%s': no such file", path.c_str()));
  }
  AddPending(PendingOp::Kind::kUnlink, path, nullptr);
  return Status::OK();
}

Status FaultInjectingEnv::TruncateFile(const std::string& path,
                                       uint64_t size) {
  MAYBMS_RETURN_IF_ERROR(OnOp("truncate", path));
  auto it = live_.find(path);
  if (it == live_.end()) {
    return Status::NotFound(
        StrFormat("truncate '%s': no such file", path.c_str()));
  }
  // Modeled as a durable content operation (slightly lenient: a real
  // ftruncate needs an fsync to be crash-durable). The engine only
  // truncates during WAL tail repair, where the surviving prefix is
  // already durable, so the simplification does not hide crash states.
  std::string combined = it->second->synced + it->second->unsynced;
  combined.resize(static_cast<size_t>(size), '\0');
  it->second->synced = std::move(combined);
  it->second->unsynced.clear();
  return Status::OK();
}

Status FaultInjectingEnv::SyncDir(const std::string& dir) {
  MAYBMS_RETURN_IF_ERROR(OnOp("fsync dir", dir));
  std::vector<PendingOp> keep;
  for (PendingOp& op : pending_) {
    // For renames the recorded path is "to\nfrom"; both live in a
    // directory iff their respective parents match (same-dir renames in
    // practice — the engine never renames across directories).
    std::string primary = op.path.substr(0, op.path.find('\n'));
    if (ParentDir(primary) != dir) {
      keep.push_back(std::move(op));
      continue;
    }
    size_t nl = op.path.find('\n');
    if (op.kind == PendingOp::Kind::kUnlink) {
      durable_.erase(op.path);
    } else if (nl == std::string::npos) {
      durable_[op.path] = op.inode;
    } else {
      durable_[op.path.substr(0, nl)] = op.inode;
      durable_.erase(op.path.substr(nl + 1));
    }
  }
  pending_ = std::move(keep);
  return Status::OK();
}

void FaultInjectingEnv::BackoffBeforeRetry(int) {
  // No real sleeping in tests; retries are observable via
  // transient_retries_observed().
}

void FaultInjectingEnv::Recover(Rng* rng) {
  // Post-crash namespace: the dir-synced state plus a random subset of
  // the volatile namespace ops, applied in order (the kernel may persist
  // metadata for some operations and not others).
  std::map<std::string, InodePtr> post = durable_;
  for (const PendingOp& op : pending_) {
    if (!rng->NextBernoulli(0.5)) continue;
    size_t nl = op.path.find('\n');
    if (op.kind == PendingOp::Kind::kUnlink) {
      post.erase(op.path);
    } else if (nl == std::string::npos) {
      post[op.path] = op.inode;
    } else {
      post[op.path.substr(0, nl)] = op.inode;
      post.erase(op.path.substr(nl + 1));
    }
  }
  // Post-crash content: synced bytes survive; un-synced appended bytes
  // are torn to a random prefix — consistently per inode, in case two
  // surviving names alias one file.
  std::unordered_map<Inode*, InodePtr> reborn;
  std::map<std::string, InodePtr> out;
  for (auto& [path, inode] : post) {
    InodePtr& slot = reborn[inode.get()];
    if (!slot) {
      slot = std::make_shared<Inode>();
      size_t keep = inode->unsynced.empty()
                        ? 0
                        : rng->NextBelow(inode->unsynced.size() + 1);
      slot->synced = inode->synced + inode->unsynced.substr(0, keep);
    }
    out[path] = slot;
  }
  live_ = out;
  durable_ = std::move(out);
  pending_.clear();
  crashed_ = false;
  ++generation_;
}

Status FaultInjectingEnv::MutateFileByte(const std::string& path,
                                         uint64_t offset) {
  auto it = live_.find(path);
  if (it == live_.end()) {
    return Status::NotFound(
        StrFormat("mutate '%s': no such file", path.c_str()));
  }
  std::string combined = it->second->synced + it->second->unsynced;
  if (offset >= combined.size()) {
    return Status::OutOfRange(
        StrFormat("mutate '%s': offset %llu past end", path.c_str(),
                  static_cast<unsigned long long>(offset)));
  }
  combined[static_cast<size_t>(offset)] ^= 0x5a;
  it->second->synced = std::move(combined);
  it->second->unsynced.clear();
  return Status::OK();
}

Result<std::string> FaultInjectingEnv::VisibleContent(const std::string& path) {
  auto it = live_.find(path);
  if (it == live_.end()) {
    return Status::NotFound(StrFormat("'%s': no such file", path.c_str()));
  }
  return it->second->synced + it->second->unsynced;
}

}  // namespace maybms
