#include "rlv/net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rlv/engine/record.hpp"
#include "rlv/io/format.hpp"
#include "rlv/io/json_writer.hpp"

namespace rlv::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Backoff before a listener paused by fd exhaustion is re-armed: even if
/// no connection closes, the process-wide fd table may have been relieved
/// (say, by the kernel finishing TIME_WAIT teardown), so retry on a short
/// period.
constexpr std::chrono::milliseconds kAcceptRetryBackoff{100};

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

// ---------------------------------------------------------------------------
// Listener

std::uint16_t Listener::listen(const std::string& address, std::uint16_t port,
                               int backlog) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    close();
    throw std::runtime_error("bad bind address: " + address);
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    close();
    throw_errno("bind " + address + ":" + std::to_string(port));
  }
  if (::listen(fd_, backlog) < 0) {
    close();
    throw_errno("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    close();
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

int Listener::accept_client(bool* soft_error) {
  if (soft_error) *soft_error = false;
  const int cfd = ::accept4(fd_, nullptr, nullptr,
                            SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (cfd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED ||
        errno == EINTR) {
      return -1;
    }
    if (errno == EMFILE || errno == ENFILE || errno == ENOMEM ||
        errno == ENOBUFS) {
      // Resource pressure, not a broken listener: the pending connection
      // stays in the backlog and a later accept (after an fd frees up)
      // will get it. Crashing here is the one thing a loaded server must
      // not do — report softly and let the caller back off.
      if (soft_error) *soft_error = true;
      return -1;
    }
    throw_errno("accept");
  }
  const int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return cfd;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// Server

namespace {

/// One client socket and its protocol state, guarded by the server mutex.
struct Connection {
  int fd = -1;  // -1 once closed; a busy connection outlives its socket
  std::uint64_t id = 0;
  std::string in;   // received bytes not yet forming a complete line (busy)
  std::string out;  // rendered responses not yet written
  std::size_t inflight = 0;  // admitted requests whose reply is not queued
  bool closing = false;      // close once `out` drains (protocol error)
  bool read_closed = false;  // peer half-closed; flush and then close
  /// A thread owns the connection: it reads, answers and writes with the
  /// mutex released. Only the owner touches the socket, so nobody closes it
  /// under the owner; others queue replies in `out` for the owner to send.
  bool busy = false;
  std::uint32_t armed = 0;  // epoll interest last armed; 0 = disarmed
  Clock::time_point last_activity{};
  /// Monitor sessions this connection owns: steps/closes are only honored
  /// for ids in here, and everything in here is closed with the socket.
  std::unordered_set<std::uint64_t> sessions;
  /// monitor_opens admitted but not yet completed — counted against the
  /// per-connection session cap so a pipelined burst cannot overshoot it.
  std::size_t pending_opens = 0;
};

/// A computation: a query miss or a monitor_open, for the connection that
/// sent it.
struct Job {
  std::uint64_t conn = 0;
  Request req;
  QueryLookup lookup;  // what Engine::lookup learned, for Engine::compute
};

// epoll data of the server's own fds; connection ids start above them.
constexpr std::uint64_t kWakeId = 0;
constexpr std::uint64_t kTimerId = 1;
constexpr std::uint64_t kListenerId = 2;

constexpr std::size_t kReadChunk = 65536;

void add_line(std::string& out, std::string_view line) {
  out += line;
  out += '\n';
}

/// An owned file descriptor: the epoll set, the wake eventfd, the timerfd.
class OwnedFd {
 public:
  OwnedFd(int fd, const char* what) : fd_(fd) {
    if (fd_ < 0) throw_errno(what);
  }
  ~OwnedFd() { ::close(fd_); }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
  [[nodiscard]] int get() const { return fd_; }

 private:
  const int fd_;
};

/// What one turn of reading a socket found.
struct ReadResult {
  std::uint64_t bytes = 0;
  bool eof = false;        // the peer half-closed
  bool failed = false;     // the socket broke
  bool too_large = false;  // an unterminated line passed the request cap
};

/// Reads `fd` until EAGAIN, EOF, a chunk's worth of complete lines (the
/// re-arm brings the rest), or an unterminated line over `cap`. Complete
/// lines move from `in` to `lines`.
ReadResult read_lines(int fd, std::string& in, std::string& lines,
                      std::size_t cap) {
  ReadResult result;
  char buffer[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      const auto size = static_cast<std::size_t>(n);
      result.bytes += size;
      const auto* nl = static_cast<const char*>(::memrchr(buffer, '\n', size));
      if (nl != nullptr) {
        const auto head = static_cast<std::size_t>(nl + 1 - buffer);
        lines += in;
        lines.append(buffer, head);
        in.assign(nl + 1, size - head);
      } else {
        in.append(buffer, size);
      }
      if (in.size() > cap) {
        in.clear();
        result.too_large = true;
        return result;
      }
      // A short read drained the socket; the re-arm catches later bytes.
      if (size < sizeof buffer || lines.size() >= kReadChunk) return result;
      continue;
    }
    if (n == 0) {
      result.eof = true;
    } else if (errno == EINTR) {
      continue;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      result.failed = true;
    }
    return result;
  }
}

}  // namespace

struct Server::Impl {
  Impl(Engine& eng, ServerOptions opts)
      : engine(eng),
        options(std::move(opts)),
        slots(std::max<std::size_t>(1, eng.workers())) {
    // Edge-triggered: each write or expiry wakes one waiting thread.
    watch(EPOLL_CTL_ADD, wake_fd.get(), kWakeId, EPOLLIN | EPOLLET);
    watch(EPOLL_CTL_ADD, timer_fd.get(), kTimerId, EPOLLIN | EPOLLET);
  }

  Engine& engine;
  const ServerOptions options;
  const std::size_t slots;  // concurrent computations: the engine's jobs
  const OwnedFd epoll_fd{::epoll_create1(EPOLL_CLOEXEC), "epoll_create1"};
  const OwnedFd wake_fd{::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC), "eventfd"};
  const OwnedFd timer_fd{
      ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC),
      "timerfd_create"};
  Listener listener;  // closed under `mutex` once serving starts
  std::uint16_t bound_port = 0;
  bool started = false;
  std::atomic<bool> stop{false};     // request_stop() was called
  std::atomic<bool> exiting{false};  // every thread leaves its loop

  // Guarded by `mutex`.
  std::mutex mutex;
  std::unordered_map<std::uint64_t, Connection> connections;
  std::uint64_t next_conn_id = kListenerId + 1;
  std::deque<Job> queue;  // computations waiting for a slot
  /// Everything a stats request reports but `queued`, the gauges too:
  /// inflight (admitted across all connections), computing (busy slots).
  ServerCounters counters;
  bool draining = false;
  Clock::time_point drain_deadline{};
  /// The listener is left disarmed: at the connection cap, or (with a
  /// retry time) on fd exhaustion. A connection closing re-arms it.
  bool accept_paused = false;
  Clock::time_point accept_retry_at = Clock::time_point::max();
  Clock::time_point timer_at = Clock::time_point::max();
  bool accept_error_logged = false;

  void watch(int op, int fd, std::uint64_t id, std::uint32_t events) const {
    epoll_event event{};
    event.events = events;
    event.data.u64 = id;
    if (::epoll_ctl(epoll_fd.get(), op, fd, &event) < 0) throw_errno("epoll_ctl");
  }

  /// Async-signal-safe: one eventfd write.
  void wake() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd.get(), &one, sizeof one);
  }

  /// Every thread leaves its loop: the wake reaches one, and each thread
  /// wakes the next as it leaves.
  void finish() {
    exiting.store(true, std::memory_order_release);
    wake();
  }

  // --- connections (mutex held) ----------------------------------------

  /// Closes the socket and reclaims the connection's monitor sessions.
  /// Replies still being computed for it are dropped on arrival.
  void close_fd_locked(Connection& conn) {
    if (conn.fd < 0) return;
    ::close(conn.fd);
    conn.fd = -1;
    conn.out.clear();
    --counters.connections_open;
    for (const std::uint64_t session : conn.sessions) {
      (void)engine.close_monitor(session);
    }
    conn.sessions.clear();
    // An fd just freed up: a listener paused on exhaustion or on the
    // connection cap can accept again.
    resume_accepting_locked();
  }

  /// Sends `out` with the mutex released; the caller owns the connection
  /// (busy), so the socket stays open. Replies queued meanwhile go too.
  void flush(Connection& conn, std::unique_lock<std::mutex>& lock) {
    // Per-thread buffers trade places with `out`, so steady-state replies
    // allocate nothing.
    thread_local std::string pending;
    while (!conn.out.empty() && conn.fd >= 0) {
      pending.clear();
      pending.swap(conn.out);
      const int fd = conn.fd;
      lock.unlock();
      std::size_t sent = 0;
      bool failed = false;
      while (sent < pending.size()) {
        const ssize_t n = ::send(fd, pending.data() + sent,
                                 pending.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
          sent += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          // EPIPE/ECONNRESET: the client vanished mid-response.
          // MSG_NOSIGNAL (plus the SIG_IGN installed at start) keeps the
          // daemon alive.
          failed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
          break;
        }
      }
      lock.lock();
      counters.bytes_written += sent;
      if (sent > 0) conn.last_activity = Clock::now();
      if (failed) {
        close_fd_locked(conn);
      } else if (sent < pending.size()) {
        conn.out.insert(0, pending, sent);  // EPOLLOUT brings the rest
        return;
      }
    }
  }

  /// Once nobody owns it: forgets a connection that is done —
  /// socket failed, protocol error flushed, peer gone or drain with nothing
  /// left to answer — or arms epoll for what it waits on. May erase `conn`.
  void settle_locked(Connection& conn) {
    if (conn.busy) return;  // its owner settles it
    const bool answered = conn.inflight == 0 && conn.out.empty();
    if (conn.fd < 0 || (conn.closing && conn.out.empty()) ||
        ((conn.read_closed || draining) && answered)) {
      const std::uint64_t id = conn.id;
      close_fd_locked(conn);
      connections.erase(id);
      check_drained_locked();
      return;
    }
    std::uint32_t want = 0;
    if (!draining && !conn.closing && !conn.read_closed &&
        conn.out.size() <= options.max_write_buffer) {
      want |= EPOLLIN;
    }
    if (!conn.out.empty()) want |= EPOLLOUT;
    if (want != conn.armed) {
      watch(EPOLL_CTL_MOD, conn.fd, conn.id, want | EPOLLONESHOT);
      conn.armed = want;
    }
  }

  /// Reserves an in-flight slot for a query or monitor_open, or names the
  /// overload scope that refuses it.
  const char* admit(Connection& conn, bool open) {
    std::lock_guard lock(mutex);
    // The per-connection session cap counts opens still in flight, so a
    // pipelined burst of opens is rejected deterministically at the cap.
    const char* scope = nullptr;
    if (open && conn.sessions.size() + conn.pending_opens >=
                    options.limits.max_sessions_per_connection) {
      scope = "connection_sessions";
    } else if (counters.inflight >= options.max_inflight) {
      scope = "server";
    } else if (conn.inflight >= options.max_inflight_per_connection) {
      scope = "connection";
    }
    if (scope != nullptr) {
      ++counters.overload_rejects;
      return scope;
    }
    ++counters.queries;
    ++counters.inflight;
    ++conn.inflight;
    if (open) ++conn.pending_opens;
    return nullptr;
  }

  /// Appends a query's record line to `out`.
  void add_record(std::string& out, const Request& req,
                  const Verdict& verdict) {
    const std::string_view label =
        req.label.empty() ? std::string_view("inline") : req.label;
    append_query_record(
        out, req.id, req.query, verdict, label,
        req.query.property_automaton.empty() ? std::string_view() : label,
        engine.cache_totals());
    out += '\n';
  }

  // --- requests (mutex released) ----------------------------------------

  /// Answers one request line into `replies`, or adds it to `misses` to be
  /// computed. Returns false on a protocol error: the stream may be
  /// desynced, so the connection answers once and closes.
  bool answer_line(Connection& conn, std::string_view line,
                   std::string& replies, std::vector<Job>& misses) {
    Request req;
    try {
      req = parse_request(line);
    } catch (const std::exception& e) {
      add_line(replies, render_error(std::nullopt, "bad_request", e.what()));
      return false;
    }
    const bool open = req.op == RequestOp::kMonitorOpen;
    switch (req.op) {
      case RequestOp::kPing: {
        JsonWriter w(replies);
        w.begin_object().field("id", req.id).field("ok", true);
        w.field("pong", true).end_object();
        replies += '\n';
        break;
      }
      case RequestOp::kStats:
        add_line(replies, render_server_stats(req.id));
        break;
      case RequestOp::kQuery:
      case RequestOp::kMonitorOpen: {
        if (const char* scope = admit(conn, open)) {
          add_line(replies, render_overloaded(req.id, scope));
          break;
        }
        Job job{conn.id, std::move(req), {}};
        if (!open) {
          apply_limits(job.req.query, options.limits);
          if (auto verdict = engine.lookup(job.req.query, job.lookup)) {
            add_record(replies, job.req, *verdict);
            std::lock_guard lock(mutex);
            --counters.inflight;
            --conn.inflight;
            break;
          }
        }
        misses.push_back(std::move(job));
        break;
      }
      case RequestOp::kMonitorStep:
        step_monitor(conn, req, replies);
        replies += '\n';
        break;
      case RequestOp::kMonitorClose: {
        bool owned = false;
        {
          std::lock_guard lock(mutex);
          owned = conn.sessions.erase(req.session) != 0;
        }
        add_line(replies,
                 owned ? render_monitor_close(
                             req.id, engine.close_monitor(req.session))
                       : render_error(req.id, "unknown_session", {}));
        break;
      }
    }
    return true;
  }

  /// Appends the reply to a monitor_step (no newline) to `out`.
  void step_monitor(Connection& conn, const Request& req, std::string& out) {
    const bool capped =
        req.actions.size() > options.limits.max_steps_per_request;
    bool owned = false;
    {
      std::lock_guard lock(mutex);
      if (capped) ++counters.overload_rejects;
      owned = conn.sessions.count(req.session) != 0;
    }
    if (capped) {
      return append_error(
          out, req.id, "too_many_steps",
          "batch cap is " +
              std::to_string(options.limits.max_steps_per_request));
    }
    // A connection may only step sessions it opened; a foreign (or
    // already-closed) id is indistinguishable from an unknown one.
    if (!owned) return append_error(out, req.id, "unknown_session", {});
    const MonitorStepResult r = engine.step_monitor(req.session, req.actions);
    if (r.error == "unknown_session") {
      std::lock_guard lock(mutex);
      conn.sessions.erase(req.session);  // idle-swept under us
    }
    append_monitor_step(out, req.id, r);
  }

  // --- events ------------------------------------------------------------

  /// A connection is ready: read it, answer what is cheap, re-arm it, and
  /// return the first miss it brought if a compute slot is free.
  std::optional<Job> on_connection(std::uint64_t id, std::uint32_t events) {
    std::unique_lock lock(mutex);
    const auto it = connections.find(id);
    if (it == connections.end()) return std::nullopt;
    Connection& conn = it->second;  // stays put while busy
    conn.armed = 0;  // EPOLLONESHOT disarmed it
    // A busy connection's owner re-arms it, and the re-arm reports
    // whatever this event saw.
    if (conn.busy) return std::nullopt;
    conn.busy = true;
    if (events & EPOLLERR) close_fd_locked(conn);
    const bool readable = conn.fd >= 0 && !draining && !conn.closing &&
                          !conn.read_closed &&
                          (events & (EPOLLIN | EPOLLHUP)) != 0;
    const int fd = conn.fd;
    lock.unlock();

    thread_local std::string lines;
    thread_local std::string replies;
    lines.clear();
    replies.clear();
    ReadResult got;
    if (readable) {
      got = read_lines(fd, conn.in, lines, options.max_request_bytes);
    }
    std::vector<Job> misses;
    std::uint64_t requests = 0;
    bool protocol_error = false;
    std::size_t start = 0;
    while (start < lines.size()) {
      const std::size_t nl = lines.find('\n', start);
      const std::string_view line =
          strip_cr(std::string_view(lines).substr(start, nl - start));
      start = nl + 1;
      if (line.empty()) continue;
      ++requests;
      if (!answer_line(conn, line, replies, misses)) {
        protocol_error = true;
        break;
      }
    }
    if (got.too_large && !protocol_error) {
      add_line(replies, render_error(std::nullopt, "bad_request",
                                     "request line too large"));
    }

    lock.lock();
    counters.requests += requests;
    counters.bytes_read += got.bytes;
    if (protocol_error || got.too_large) ++counters.protocol_errors;
    if (got.bytes > 0) conn.last_activity = Clock::now();
    if (got.eof) conn.read_closed = true;
    if (got.failed) close_fd_locked(conn);
    if (protocol_error || got.too_large) conn.closing = true;
    if (conn.fd >= 0) conn.out += replies;
    std::optional<Job> mine;
    for (Job& job : misses) {
      if (!mine && counters.computing < slots) {
        ++counters.computing;
        mine = std::move(job);
      } else {
        queue.push_back(std::move(job));
        ++counters.queued_total;
      }
    }
    if (!queue.empty() && counters.computing < slots) wake();
    flush(conn, lock);
    conn.busy = false;
    settle_locked(conn);  // before computing: later requests flow elsewhere
    return mine;
  }

  /// Computes one job on this thread and queues its reply; returns the next
  /// queued job, which keeps this thread's compute slot.
  std::optional<Job> run_job(Job job) {
    const bool open = job.req.op == RequestOp::kMonitorOpen;
    // Rendered with the mutex released, into a buffer this thread reuses.
    thread_local std::string reply;
    reply.clear();
    std::uint64_t session = 0;
    if (open) {
      const MonitorOpenResult result = engine.open_monitor(job.req.monitor);
      session = result.session;
      add_line(reply, render_monitor_open(job.req.id, result));
    } else {
      add_record(reply, job.req, engine.compute(job.req.query, job.lookup));
    }

    std::unique_lock lock(mutex);
    --counters.inflight;
    const auto it = connections.find(job.conn);
    Connection* conn = it == connections.end() ? nullptr : &it->second;
    if (conn != nullptr) {
      --conn->inflight;
      if (open) --conn->pending_opens;
    }
    if (conn == nullptr || conn->fd < 0) {
      // The client left first: a session opened for it would leak in the
      // engine table with nobody able to step or close it.
      if (session != 0) (void)engine.close_monitor(session);
    } else {
      if (session != 0) conn->sessions.insert(session);
      conn->out += reply;
      if (!conn->busy) {  // else its owner sends the reply
        conn->busy = true;
        flush(*conn, lock);
        conn->busy = false;
      }
    }
    if (conn != nullptr) settle_locked(*conn);
    if (!queue.empty() && !exiting.load(std::memory_order_relaxed)) {
      Job next = std::move(queue.front());
      queue.pop_front();
      return next;
    }
    --counters.computing;
    check_drained_locked();
    return std::nullopt;
  }

  /// Queued work found a free slot.
  std::optional<Job> on_wake() {
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t n = ::read(wake_fd.get(), &count, sizeof count);
    std::lock_guard lock(mutex);
    if (exiting.load(std::memory_order_relaxed) || queue.empty() ||
        counters.computing >= slots) {
      return std::nullopt;
    }
    ++counters.computing;
    Job job = std::move(queue.front());
    queue.pop_front();
    if (!queue.empty() && counters.computing < slots) wake();  // pass it on
    return job;
  }

  void on_listener() {
    std::lock_guard lock(mutex);
    if (!listener.open()) return;
    const Clock::time_point now = Clock::now();
    while (true) {
      if (counters.connections_open >= options.max_connections) {
        accept_paused = true;  // re-armed when a connection closes
        return;
      }
      bool soft_error = false;
      const int cfd = listener.accept_client(&soft_error);
      if (cfd < 0) {
        if (!soft_error) break;
        ++counters.accept_soft_errors;
        if (!accept_error_logged) {
          // Once per exhaustion episode, not per retry: the counter
          // carries the rate, the log line carries the diagnosis.
          std::fprintf(stderr,
                       "rlv::net: accept: %s — pausing listener until a "
                       "connection closes\n",
                       std::strerror(errno));
          accept_error_logged = true;
        }
        accept_paused = true;
        accept_retry_at = now + kAcceptRetryBackoff;
        schedule_locked(accept_retry_at);
        return;
      }
      accept_error_logged = false;
      ++counters.connections_accepted;
      ++counters.connections_open;
      const std::uint64_t id = next_conn_id++;
      Connection& conn = connections[id];
      conn.fd = cfd;
      conn.id = id;
      conn.last_activity = now;
      conn.armed = EPOLLIN;
      watch(EPOLL_CTL_ADD, cfd, id, EPOLLIN | EPOLLONESHOT);
      if (options.idle_timeout_ms > 0) {
        schedule_locked(now +
                        std::chrono::milliseconds(options.idle_timeout_ms));
      }
    }
    watch(EPOLL_CTL_MOD, listener.fd(), kListenerId, EPOLLIN | EPOLLONESHOT);
  }

  void resume_accepting_locked() {
    if (!accept_paused || !listener.open()) return;
    accept_paused = false;
    accept_retry_at = Clock::time_point::max();
    watch(EPOLL_CTL_MOD, listener.fd(), kListenerId, EPOLLIN | EPOLLONESHOT);
  }

  /// Housekeeping on the timerfd: drain deadline, accept retry, idle
  /// connections and idle monitor sessions.
  void on_timer() {
    std::uint64_t expirations = 0;
    [[maybe_unused]] const ssize_t n =
        ::read(timer_fd.get(), &expirations, sizeof expirations);
    const Clock::time_point now = Clock::now();
    {
      std::lock_guard lock(mutex);
      timer_at = Clock::time_point::max();
      if (draining) {
        if (now >= drain_deadline) {
          finish();  // give up on stragglers
        } else {
          schedule_locked(drain_deadline);
        }
        return;
      }
      if (accept_paused && now >= accept_retry_at) resume_accepting_locked();
      if (accept_paused) schedule_locked(accept_retry_at);
      if (options.idle_timeout_ms > 0) close_idle_locked(now);
      if (options.session_idle_timeout_ms > 0) {
        // Sessions idle past the timeout go within 1.5 timeouts.
        schedule_locked(now + std::chrono::milliseconds(
                                  options.session_idle_timeout_ms / 2 + 1));
      }
    }
    if (options.session_idle_timeout_ms > 0) {
      (void)engine.sweep_idle_sessions(options.session_idle_timeout_ms);
    }
  }

  void close_idle_locked(Clock::time_point now) {
    const auto timeout = std::chrono::milliseconds(options.idle_timeout_ms);
    for (auto it = connections.begin(); it != connections.end();) {
      Connection& conn = it->second;
      if (conn.busy || conn.fd < 0 || conn.inflight > 0 || !conn.out.empty()) {
        schedule_locked(now + timeout);  // look again once it may be idle
        ++it;
        continue;
      }
      if (now - conn.last_activity >= timeout) {
        ++counters.idle_closed;
        close_fd_locked(conn);
        it = connections.erase(it);
      } else {
        schedule_locked(conn.last_activity + timeout);
        ++it;
      }
    }
  }

  /// Makes the timer fire by `at` (it may fire earlier for another reason).
  void schedule_locked(Clock::time_point at) {
    if (at >= timer_at) return;
    timer_at = at;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        at.time_since_epoch())
                        .count();
    itimerspec spec{};
    spec.it_value.tv_sec = static_cast<time_t>(ns / 1000000000);
    spec.it_value.tv_nsec = static_cast<long>(ns % 1000000000);
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
      spec.it_value.tv_nsec = 1;  // zero would disarm the timer
    }
    if (::timerfd_settime(timer_fd.get(), TFD_TIMER_ABSTIME, &spec, nullptr) < 0) {
      throw_errno("timerfd_settime");
    }
  }

  void check_drained_locked() {
    if (draining && connections.empty() && counters.computing == 0 &&
        queue.empty()) {
      finish();
    }
  }

  void begin_drain() {
    std::lock_guard lock(mutex);
    if (draining) return;
    draining = true;
    drain_deadline =
        Clock::now() + std::chrono::milliseconds(options.drain_timeout_ms);
    listener.close();  // closing the fd also drops it from the epoll set
    for (auto it = connections.begin(); it != connections.end();) {
      settle_locked((it++)->second);  // may erase the connection just passed
    }
    schedule_locked(drain_deadline);
    check_drained_locked();
  }

  // --- threads -----------------------------------------------------------

  void serve() {
    epoll_event event{};
    while (!exiting.load(std::memory_order_acquire)) {
      if (stop.load(std::memory_order_acquire)) begin_drain();
      // One event per wait: a thread that computes holds no other ready
      // connection back.
      const int n = ::epoll_wait(epoll_fd.get(), &event, 1, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("epoll_wait");
      }
      if (n == 0) continue;
      std::optional<Job> job;
      switch (event.data.u64) {
        case kWakeId:
          job = on_wake();
          break;
        case kTimerId:
          on_timer();
          break;
        case kListenerId:
          on_listener();
          break;
        default:
          job = on_connection(event.data.u64, event.events);
          break;
      }
      while (job) job = run_job(std::move(*job));
    }
    wake();  // pass the exit on to the next waiting thread
  }

  void run_all() {
    if (!started) throw std::runtime_error("Server::run() before start()");
    on_timer();  // the first housekeeping pass plans the next ones
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto record_error = [&] {
      {
        std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      finish();  // one thread failing must not strand the others
    };
    const auto serve_or_record = [&] {
      try {
        serve();
      } catch (...) {
        record_error();
      }
    };
    std::vector<std::thread> threads;
    try {
      for (std::size_t i = 0; i < slots; ++i) {
        threads.emplace_back(serve_or_record);
      }
    } catch (...) {
      record_error();  // the threads that did start wind down
    }
    serve_or_record();
    for (std::thread& thread : threads) thread.join();
    {
      // Past the drain deadline: close what is left, drop what never ran.
      std::lock_guard lock(mutex);
      for (auto& [id, conn] : connections) close_fd_locked(conn);
      connections.clear();
      counters.inflight -= queue.size();
      queue.clear();
    }
    if (error) std::rethrow_exception(error);
  }

  [[nodiscard]] ServerCounters snapshot_counters() {
    std::lock_guard lock(mutex);
    ServerCounters snapshot = counters;
    snapshot.queued = queue.size();
    return snapshot;
  }

  std::string render_server_stats(std::uint64_t id) {
    const ServerCounters c = snapshot_counters();
    std::string out;
    JsonWriter w(out);
    w.begin_object().field("id", id).field("ok", true);
    w.key("stats").raw(render_stats(engine.stats())).key("server");
    w.begin_object().field("connections_accepted", c.connections_accepted);
    w.field("connections_open", c.connections_open);
    w.field("requests", c.requests).field("queries", c.queries);
    w.field("overload_rejects", c.overload_rejects);
    w.field("protocol_errors", c.protocol_errors);
    w.field("idle_closed", c.idle_closed).field("bytes_read", c.bytes_read);
    w.field("bytes_written", c.bytes_written).field("inflight", c.inflight);
    w.field("accept_soft_errors", c.accept_soft_errors);
    w.field("computing", c.computing).field("queued", c.queued);
    w.field("queued_total", c.queued_total);
    w.field("draining", stop.load(std::memory_order_acquire));
    w.end_object().end_object();
    return out;
  }
};

Server::Server(Engine& engine, ServerOptions options)
    : impl_(std::make_unique<Impl>(engine, std::move(options))) {}

Server::~Server() = default;

std::uint16_t Server::start() {
  // A client disconnecting mid-response must not kill the daemon: every
  // send() also passes MSG_NOSIGNAL, but third-party code (and the client
  // library, when used in-process) writes to sockets too.
  std::signal(SIGPIPE, SIG_IGN);
  Impl& impl = *impl_;
  impl.bound_port = impl.listener.listen(impl.options.bind_address,
                                         impl.options.port,
                                         impl.options.backlog);
  impl.watch(EPOLL_CTL_ADD, impl.listener.fd(), kListenerId,
             EPOLLIN | EPOLLONESHOT);
  impl.started = true;
  return impl.bound_port;
}

void Server::run() { impl_->run_all(); }

void Server::request_stop() {
  impl_->stop.store(true, std::memory_order_release);
  impl_->wake();
}

std::uint16_t Server::port() const { return impl_->bound_port; }

ServerCounters Server::counters() const { return impl_->snapshot_counters(); }

}  // namespace rlv::net
