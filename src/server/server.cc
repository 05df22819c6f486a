#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <utility>

#include "common/logging.h"
#include "server/protocol.h"
#include "sql/parser.h"

namespace maybms {
namespace server {

namespace {

/// A request line longer than this closes the connection (malformed or
/// hostile input, not SQL).
constexpr size_t kMaxLineBytes = 1 << 20;

Status ErrnoStatus(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

/// Per-connection state. The socket is read only by the I/O thread and
/// written only by the statement currently owning the connection
/// (busy == true); busy/pending/closed transitions happen under
/// Server::conns_mu_. The token bucket and session are touched only by
/// the owner, so they need no lock of their own.
struct Server::Conn {
  int fd = -1;
  std::string inbuf;
  std::deque<std::string> pending;
  bool busy = false;
  bool closed = false;      ///< peer hung up or protocol violation
  bool want_close = false;  ///< close after the in-flight response
  sql::Session session;
  double tokens = 0.0;
  std::chrono::steady_clock::time_point last_refill;
};

Result<std::unique_ptr<Server>> Server::Start(SharedCatalog* catalog,
                                              ServerOptions options) {
  MAYBMS_CHECK(catalog != nullptr);
  auto server = std::unique_ptr<Server>(new Server());
  server->catalog_ = catalog;
  server->options_ = options;
  if (server->options_.workers == 0) {
    server->options_.workers = DefaultNumThreads();
  }
  if (server->options_.max_in_flight == 0) {
    server->options_.max_in_flight = 4 * server->options_.workers;
  }

  server->listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (server->listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(server->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind");
  }
  if (::listen(server->listen_fd_, 128) != 0) return ErrnoStatus("listen");
  // The accept loop and the wake pipe drain until EAGAIN — nonblocking.
  ::fcntl(server->listen_fd_, F_SETFL, O_NONBLOCK);
  socklen_t len = sizeof(addr);
  if (::getsockname(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  server->port_ = ntohs(addr.sin_port);
  if (::pipe(server->wake_fds_) != 0) return ErrnoStatus("pipe");
  ::fcntl(server->wake_fds_[0], F_SETFL, O_NONBLOCK);

  server->workers_ = std::make_unique<TaskPool>(server->options_.workers);
  server->io_thread_ = std::thread([s = server.get()] { s->IoLoop(); });
  return server;
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (stopping_.exchange(true)) return;
  WakeIo();
  if (io_thread_.joinable()) io_thread_.join();
  // Drains queued + running statements (their responses still go out),
  // then joins the workers.
  workers_.reset();
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& [fd, conn] : conns_) {
    ::close(fd);
    conn->closed = true;
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  listen_fd_ = -1;
}

void Server::WakeIo() {
  char b = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &b, 1);
}

ServerCounters Server::counters() const {
  ServerCounters c;
  c.connections_accepted = connections_accepted_.load();
  c.requests_served = requests_served_.load();
  c.sql_errors = sql_errors_.load();
  c.rejected_rate_limit = rejected_rate_limit_.load();
  c.rejected_overload = rejected_overload_.load();
  c.result_cache_hits = cache_hits_.load();
  c.result_cache_misses = cache_misses_.load();
  return c;
}

std::optional<std::string> Server::CacheLookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) return std::nullopt;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
  return it->second.response;
}

void Server::CacheInsert(const std::string& key, std::string response) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // A concurrent worker raced us to the same (version, settings,
    // statement) key; both computed the same deterministic response.
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
    return;
  }
  cache_lru_.push_front(key);
  cache_.emplace(key, CacheEntry{std::move(response), cache_lru_.begin()});
  while (cache_.size() > options_.result_cache_entries) {
    cache_.erase(cache_lru_.back());
    cache_lru_.pop_back();
  }
}

void Server::IoLoop() {
  std::vector<pollfd> fds;
  std::vector<int> poll_conns;
  char buf[4096];
  while (!stopping_.load(std::memory_order_acquire)) {
    fds.clear();
    poll_conns.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_fds_[0], POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& [fd, conn] : conns_) {
        // Busy connections are owned by a worker; their next request
        // (if pipelined) is already buffered and dispatches from
        // FinishStatement, so only idle sockets are polled.
        if (!conn->busy && !conn->closed) {
          fds.push_back({fd, POLLIN, 0});
          poll_conns.push_back(fd);
        }
      }
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    if (fds[1].revents & POLLIN) {
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) {
      for (;;) {
        int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) break;
        int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        // Reads below use MSG_DONTWAIT; writes (from workers) block.
        auto conn = std::make_shared<Conn>();
        conn->fd = cfd;
        conn->tokens = options_.rate_burst;
        conn->last_refill = std::chrono::steady_clock::now();
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.emplace(cfd, std::move(conn));
      }
    }
    for (size_t i = 2; i < fds.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        auto it = conns_.find(poll_conns[i - 2]);
        if (it == conns_.end()) continue;
        conn = it->second;
        if (conn->busy || conn->closed) continue;
      }
      bool eof = false;
      for (;;) {
        ssize_t n = ::recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
          conn->inbuf.append(buf, static_cast<size_t>(n));
          if (conn->inbuf.size() > kMaxLineBytes) eof = true;
          if (static_cast<size_t>(n) < sizeof(buf)) break;
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        eof = true;  // orderly EOF or hard error
        break;
      }
      // Split complete lines off the buffer (conn is idle: the I/O
      // thread is its owner right now, no lock needed for inbuf).
      size_t start = 0;
      for (;;) {
        size_t nl = conn->inbuf.find('\n', start);
        if (nl == std::string::npos) break;
        std::string line = conn->inbuf.substr(start, nl - start);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        start = nl + 1;
        if (!line.empty()) conn->pending.push_back(std::move(line));
      }
      conn->inbuf.erase(0, start);

      std::string first;
      bool dispatch = false;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        if (!conn->pending.empty()) {
          first = std::move(conn->pending.front());
          conn->pending.pop_front();
          conn->busy = true;
          conn->want_close = eof;  // serve buffered requests, then close
          dispatch = true;
        } else if (eof) {
          conn->closed = true;
          ::close(conn->fd);
          conns_.erase(conn->fd);
        }
      }
      if (dispatch) Dispatch(conn, std::move(first));
    }
  }
}

void Server::SendAll(const std::shared_ptr<Conn>& conn,
                     const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(conn->fd, data.data() + off, data.size() - off,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->want_close = true;  // peer gone; reap in FinishStatement
      return;
    }
    off += static_cast<size_t>(n);
  }
}

void Server::Dispatch(const std::shared_ptr<Conn>& conn, std::string line) {
  // Invariant: conn->busy == true; this thread owns the connection.
  for (;;) {
    // Token bucket: refill by elapsed wall time, spend one per request.
    bool limited = false;
    if (options_.rate_qps > 0) {
      const auto now = std::chrono::steady_clock::now();
      const double dt =
          std::chrono::duration<double>(now - conn->last_refill).count();
      conn->last_refill = now;
      conn->tokens = std::min(options_.rate_burst,
                              conn->tokens + dt * options_.rate_qps);
      if (conn->tokens >= 1.0) {
        conn->tokens -= 1.0;
      } else {
        limited = true;
      }
    }
    if (!limited) {
      const uint64_t inflight =
          in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (inflight > options_.max_in_flight) {
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        rejected_overload_.fetch_add(1, std::memory_order_relaxed);
        SendAll(conn, EncodeErr("server overloaded, retry later"));
      } else {
        workers_->Submit(
            [this, conn, l = std::move(line)]() mutable {
              ServeLine(conn, std::move(l));
            });
        return;  // ServeLine calls FinishStatement when done
      }
    } else {
      rejected_rate_limit_.fetch_add(1, std::memory_order_relaxed);
      SendAll(conn, EncodeErr("rate limit exceeded"));
    }
    // Rejected without occupying a worker: move on to the next buffered
    // request, or go idle.
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conn->want_close || conn->closed || conn->pending.empty()) break;
      line = std::move(conn->pending.front());
      conn->pending.pop_front();
    }
  }
  FinishStatement(conn);
}

bool Server::ServeDotCommand(const std::shared_ptr<Conn>& conn,
                             const std::string& line) {
  if (line.empty() || line[0] != '.') return false;
  if (line == ".ping") {
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    SendAll(conn, EncodeOk({"pong"}));
  } else if (line == ".stats") {
    const ServerCounters c = counters();
    std::vector<std::string> out = {
        "connections_accepted " + std::to_string(c.connections_accepted),
        "requests_served " + std::to_string(c.requests_served),
        "sql_errors " + std::to_string(c.sql_errors),
        "rejected_rate_limit " + std::to_string(c.rejected_rate_limit),
        "rejected_overload " + std::to_string(c.rejected_overload),
        "catalog_version " + std::to_string(catalog_->version()),
        "checkpoint_failures " +
            std::to_string(catalog_->checkpoint_failures()),
        "wal_records " + std::to_string(catalog_->wal_records()),
        "workers " + std::to_string(options_.workers),
        "result_cache_hits " + std::to_string(c.result_cache_hits),
        "result_cache_misses " + std::to_string(c.result_cache_misses),
    };
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    SendAll(conn, EncodeOk(out));
  } else if (line.rfind(".sleep ", 0) == 0) {
    // Occupies this worker for N ms — the admission-control tests' lever.
    const int ms = std::atoi(line.c_str() + 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    SendAll(conn, EncodeOk({"slept " + std::to_string(ms)}));
  } else if (line == ".quit") {
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    SendAll(conn, EncodeOk({"bye"}));
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn->want_close = true;
  } else {
    sql_errors_.fetch_add(1, std::memory_order_relaxed);
    SendAll(conn, EncodeErr("unknown command: " + line));
  }
  return true;
}

void Server::ServeLine(const std::shared_ptr<Conn>& conn, std::string line) {
  if (!ServeDotCommand(conn, line)) {
    Result<sql::Statement> stmt = sql::ParseStatement(line);
    if (!stmt.ok()) {
      sql_errors_.fetch_add(1, std::memory_order_relaxed);
      SendAll(conn, EncodeErr(stmt.status().ToString()));
    } else {
      ServeStatement(conn, *stmt, line);
    }
  }
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  FinishStatement(conn);
}

void Server::ServeStatement(const std::shared_ptr<Conn>& conn,
                            const sql::Statement& stmt,
                            const std::string& line) {
  // SET is session-local: it tunes this connection's own session and
  // must never reach the shared writer (whose settings are global).
  if (stmt.kind == sql::Statement::Kind::kSet) {
    Result<sql::StatementResult> result = conn->session.ExecuteParsed(stmt);
    if (!result.ok()) {
      sql_errors_.fetch_add(1, std::memory_order_relaxed);
      SendAll(conn, EncodeErr(result.status().ToString()));
    } else {
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      SendAll(conn, EncodeOk(SplitLines(result->ToDisplayString())));
    }
    return;
  }
  if (IsReadStatement(stmt)) {
    // Read statements are pure functions of (published version, session
    // settings, statement text) — exactly the result-cache key. The
    // version is read before the snapshot, so a racing publish can only
    // cache a fresher answer under the older key, never a staler one.
    std::string key;
    const bool use_cache = options_.result_cache_entries > 0;
    if (use_cache) {
      key = std::to_string(catalog_->version()) + '|' +
            std::to_string(conn->session.SettingsFingerprint()) + '|' + line;
      if (std::optional<std::string> hit = CacheLookup(key)) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        requests_served_.fetch_add(1, std::memory_order_relaxed);
        SendAll(conn, *hit);
        return;
      }
      cache_misses_.fetch_add(1, std::memory_order_relaxed);
    }
    // Snapshot isolation: the whole statement runs against one
    // published version, however many writes commit meanwhile.
    conn->session.db() = catalog_->SnapshotCopy();
    Result<sql::StatementResult> result = conn->session.ExecuteParsed(stmt);
    if (!result.ok()) {
      sql_errors_.fetch_add(1, std::memory_order_relaxed);
      SendAll(conn, EncodeErr(result.status().ToString()));
      return;
    }
    std::string response = EncodeOk(SplitLines(result->ToDisplayString()));
    if (use_cache) CacheInsert(key, response);
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    SendAll(conn, response);
    return;
  }
  Result<sql::StatementResult> result = catalog_->ExecuteWrite(stmt);
  if (!result.ok()) {
    sql_errors_.fetch_add(1, std::memory_order_relaxed);
    SendAll(conn, EncodeErr(result.status().ToString()));
  } else {
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    SendAll(conn, EncodeOk(SplitLines(result->ToDisplayString())));
  }
}

void Server::FinishStatement(const std::shared_ptr<Conn>& conn) {
  std::string next;
  bool have_next = false;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (conn->want_close || conn->closed) {
      if (!conn->closed) {
        conn->closed = true;
        ::close(conn->fd);
      }
      conns_.erase(conn->fd);
      return;
    }
    if (!conn->pending.empty()) {
      next = std::move(conn->pending.front());
      conn->pending.pop_front();
      have_next = true;  // stays busy
    } else {
      conn->busy = false;
    }
  }
  if (have_next) {
    Dispatch(conn, std::move(next));
  } else {
    WakeIo();  // put the idle socket back on the poll set
  }
}

}  // namespace server
}  // namespace maybms
