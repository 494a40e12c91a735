#include "rlv/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rlv/engine/record.hpp"
#include "rlv/io/format.hpp"

namespace rlv::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Backoff before a reactor re-polls a listener paused by fd exhaustion:
/// even if none of this reactor's connections close, the process-wide fd
/// table may have been relieved by another reactor (or by the kernel
/// finishing TIME_WAIT teardown), so retry on a short period.
constexpr std::chrono::milliseconds kAcceptRetryBackoff{100};

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

// ---------------------------------------------------------------------------
// Listener

std::uint16_t Listener::listen(const std::string& address, std::uint16_t port,
                               int backlog, bool reuse_port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuse_port) {
    // Must be set before bind on every socket sharing the port. Failure
    // throws so Server::start() can fall back to the fd-handoff acceptor.
#ifdef SO_REUSEPORT
    if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) < 0) {
      close();
      throw_errno("setsockopt(SO_REUSEPORT)");
    }
#else
    close();
    throw std::runtime_error("SO_REUSEPORT not supported on this platform");
#endif
  }
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

/// One client socket and its protocol state. Owned exclusively by the
/// reactor that accepted (or was handed) it.
struct Connection {
  int fd = -1;
  std::uint64_t id = 0;
  std::string in;   // received bytes not yet forming a complete line
  std::string out;  // rendered responses not yet written
  std::size_t inflight = 0;  // queries submitted, response not yet queued
  bool closing = false;      // close once `out` drains (protocol error)
  bool read_closed = false;  // peer half-closed; flush and then close
  Clock::time_point last_activity{};
  /// Monitor sessions this connection owns: steps/closes are only honored
  /// for ids in here, and everything in here is closed with the socket.
  std::unordered_set<std::uint64_t> sessions;
  /// monitor_opens submitted but not yet completed — counted against the
  /// per-connection session cap so a pipelined burst cannot overshoot it.
  std::size_t pending_opens = 0;
};

struct Completion {
  std::uint64_t conn_id = 0;
  std::string line;
  bool open = false;          // a monitor_open completion
  std::uint64_t session = 0;  // the opened session (0 = open failed)
  /// >= 0: not a query completion at all but an accepted client socket
  /// handed off by the acceptor reactor for this reactor to adopt.
  int handoff_fd = -1;
};

/// The worker→reactor handoff. Shared (via shared_ptr) between the reactor
/// and every in-flight completion callback, so a callback finishing after
/// the server is gone posts into a queue nobody reads instead of freed
/// memory. Owns the write end of the reactor's wakeup pipe.
struct CompletionSink {
  std::mutex mutex;
  std::vector<Completion> items;
  int wake_fd = -1;
  /// The reactor thread draining this sink. A post from it (a resident
  /// verdict answered inline) needs no wake: the reactor drains the sink
  /// at the top of every loop pass, before it polls again.
  std::atomic<std::thread::id> owner{};

  ~CompletionSink() {
    // Handed-off sockets nobody adopted must not leak past the server.
    for (const Completion& completion : items) {
      if (completion.handoff_fd >= 0) ::close(completion.handoff_fd);
    }
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void post(std::uint64_t conn_id, std::string line, bool open = false,
            std::uint64_t session = 0) {
    {
      std::lock_guard lock(mutex);
      items.push_back({conn_id, std::move(line), open, session, -1});
    }
    if (owner.load(std::memory_order_relaxed) != std::this_thread::get_id()) {
      wake();
    }
  }

  void post_fd(int fd) {
    {
      std::lock_guard lock(mutex);
      items.push_back({0, {}, false, 0, fd});
    }
    wake();
  }

  void wake() {
    const char byte = 'c';
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &byte, 1);
    // A full pipe means the reactor has wakeups pending already.
  }
};

}  // namespace

struct Server::Impl {
  // Owner sentinels for a reactor's pollfd table; connection ids start
  // above them.
  static constexpr std::uint64_t kWakeOwner = 0;
  static constexpr std::uint64_t kListenerOwner = 1;

  /// One event loop: listener, wake pipe, completion sink, connection map,
  /// and (through each connection) a set of owned monitor sessions. No
  /// reactor ever touches another reactor's state — the only cross-reactor
  /// traffic is the acceptor's fd handoff through the completion sink.
  struct Reactor {
    Impl& impl;
    const std::size_t index;
    Listener listener;
    int wake_read = -1;
    std::shared_ptr<CompletionSink> sink;
    std::unordered_map<std::uint64_t, Connection> connections;
    std::uint64_t next_conn_id = kListenerOwner + 1;
    /// Queries/opens this reactor submitted that have not completed; the
    /// reactor's drain exit condition (the global gauge cannot tell whose
    /// in-flight work is whose).
    std::size_t local_inflight = 0;
    /// fd-exhaustion state: while paused the listener is left out of the
    /// poll set; cleared when one of this reactor's connections closes or
    /// the retry backoff elapses.
    bool accept_paused = false;
    Clock::time_point accept_retry_at{};
    std::uint64_t rr_next = 0;  // acceptor reactor's round-robin cursor

    Reactor(Impl& owner, std::size_t idx) : impl(owner), index(idx) {
      int pipe_fds[2];
      if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) throw_errno("pipe2");
      wake_read = pipe_fds[0];
      sink = std::make_shared<CompletionSink>();
      sink->wake_fd = pipe_fds[1];
    }

    ~Reactor() {
      for (auto& [id, conn] : connections) close_fd(conn);
      if (wake_read >= 0) ::close(wake_read);
      // The sink closes the write end when the last callback releases it.
    }

    void close_fd(Connection& conn) {
      if (conn.fd < 0) return;
      ::close(conn.fd);
      conn.fd = -1;
      impl.c_open.fetch_sub(1, std::memory_order_relaxed);
      // Session lifetime is tied to the connection: RST, idle close,
      // drain — every path through here reclaims the connection's monitor
      // sessions, whichever reactor owns it.
      for (const std::uint64_t session : conn.sessions) {
        (void)impl.engine.close_monitor(session);
      }
      conn.sessions.clear();
      // An fd just freed up; if the listener was paused on exhaustion it
      // can accept again.
      accept_paused = false;
    }

    void flush_writes(Connection& conn) {
      while (!conn.out.empty() && conn.fd >= 0) {
        const ssize_t n =
            ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
        if (n > 0) {
          impl.c_bytes_written.fetch_add(static_cast<std::uint64_t>(n),
                                         std::memory_order_relaxed);
          conn.out.erase(0, static_cast<std::size_t>(n));
          conn.last_activity = Clock::now();
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        if (n < 0 && errno == EINTR) continue;
        // EPIPE/ECONNRESET: the client vanished mid-response. MSG_NOSIGNAL
        // (plus the SIG_IGN installed at start) keeps the daemon alive; the
        // connection is reaped, its in-flight completions dropped on
        // arrival.
        close_fd(conn);
        conn.out.clear();
      }
    }

    void send_line(Connection& conn, std::string line) {
      conn.out += line;
      conn.out += '\n';
      flush_writes(conn);
    }

    void submit_query(Connection& conn, Request req) {
      if (impl.global_inflight.load(std::memory_order_relaxed) >=
          impl.options.max_inflight) {
        impl.c_overload.fetch_add(1, std::memory_order_relaxed);
        send_line(conn, render_overloaded(req.id, "server"));
        return;
      }
      if (conn.inflight >= impl.options.max_inflight_per_connection) {
        impl.c_overload.fetch_add(1, std::memory_order_relaxed);
        send_line(conn, render_overloaded(req.id, "connection"));
        return;
      }
      apply_limits(req.query, impl.options.limits);
      impl.global_inflight.fetch_add(1, std::memory_order_relaxed);
      ++local_inflight;
      ++conn.inflight;
      impl.c_queries.fetch_add(1, std::memory_order_relaxed);

      Query to_run = req.query;
      std::string label = req.label.empty() ? "inline" : std::move(req.label);
      std::string property_label =
          req.query.property_automaton.empty() ? std::string() : label;
      // A resident verdict is answered right here, inside submit(): the
      // callback runs on this reactor and posts to its own sink without a
      // wake, and the next loop pass drains it before polling. Anything
      // else runs (and renders) on an engine worker. Engine outlives every
      // callback (its destructor drains the pool), and the shared sink
      // outlives the server.
      engine().submit(
          std::move(to_run),
          [sink = sink, engine = &engine(), conn_id = conn.id, id = req.id,
           query = std::move(req.query), label = std::move(label),
           property_label = std::move(property_label)](Verdict verdict) {
            std::string record =
                render_query_record(id, query, verdict, label, property_label,
                                    engine->cache_totals());
            sink->post(conn_id, std::move(record));
          });
    }

    void submit_monitor_open(Connection& conn, Request req) {
      // The per-connection session cap counts opens still in flight, so a
      // pipelined burst of opens is rejected deterministically at the cap.
      if (conn.sessions.size() + conn.pending_opens >=
          impl.options.limits.max_sessions_per_connection) {
        impl.c_overload.fetch_add(1, std::memory_order_relaxed);
        send_line(conn, render_overloaded(req.id, "connection_sessions"));
        return;
      }
      if (impl.global_inflight.load(std::memory_order_relaxed) >=
          impl.options.max_inflight) {
        impl.c_overload.fetch_add(1, std::memory_order_relaxed);
        send_line(conn, render_overloaded(req.id, "server"));
        return;
      }
      if (conn.inflight >= impl.options.max_inflight_per_connection) {
        impl.c_overload.fetch_add(1, std::memory_order_relaxed);
        send_line(conn, render_overloaded(req.id, "connection"));
        return;
      }
      impl.global_inflight.fetch_add(1, std::memory_order_relaxed);
      ++local_inflight;
      ++conn.inflight;
      ++conn.pending_opens;
      impl.c_queries.fetch_add(1, std::memory_order_relaxed);
      // Compilation is the expensive half of a monitor's life — run it on
      // a worker like any query; stepping stays on the loop (O(1)/event).
      engine().submit_monitor_open(
          std::move(req.monitor),
          [sink = sink, conn_id = conn.id, id = req.id](MonitorOpenResult r) {
            sink->post(conn_id, render_monitor_open(id, r), /*open=*/true,
                       r.session);
          });
    }

    void handle_monitor_step(Connection& conn, const Request& req) {
      if (req.actions.size() > impl.options.limits.max_steps_per_request) {
        impl.c_overload.fetch_add(1, std::memory_order_relaxed);
        send_line(
            conn,
            render_error(req.id, "too_many_steps",
                         "batch cap is " +
                             std::to_string(
                                 impl.options.limits.max_steps_per_request)));
        return;
      }
      // A connection may only step sessions it opened; a foreign (or
      // already-closed) id is indistinguishable from an unknown one.
      if (conn.sessions.count(req.session) == 0) {
        send_line(conn, render_error(req.id, "unknown_session", {}));
        return;
      }
      MonitorStepResult r = engine().step_monitor(req.session, req.actions);
      if (r.error == "unknown_session") {
        conn.sessions.erase(req.session);  // idle-swept under us
      }
      send_line(conn, render_monitor_step(req.id, r));
    }

    void handle_monitor_close(Connection& conn, const Request& req) {
      if (conn.sessions.erase(req.session) == 0) {
        send_line(conn, render_error(req.id, "unknown_session", {}));
        return;
      }
      send_line(conn, render_monitor_close(
                          req.id, engine().close_monitor(req.session)));
    }

    void handle_line(Connection& conn, std::string_view line, bool stopping) {
      impl.c_requests.fetch_add(1, std::memory_order_relaxed);
      Request req;
      try {
        req = parse_request(line);
      } catch (const std::exception& e) {
        // The stream may be desynced (a partial or non-protocol line), so
        // answer once and close rather than misinterpret what follows.
        impl.c_proto_err.fetch_add(1, std::memory_order_relaxed);
        send_line(conn, render_error(std::nullopt, "bad_request", e.what()));
        conn.closing = true;
        return;
      }
      switch (req.op) {
        case RequestOp::kPing:
          send_line(conn, "{\"id\":" + std::to_string(req.id) +
                              ",\"ok\":true,\"pong\":true}");
          break;
        case RequestOp::kStats:
          send_line(conn, impl.render_server_stats(req.id, stopping));
          break;
        case RequestOp::kQuery:
          submit_query(conn, std::move(req));
          break;
        case RequestOp::kMonitorOpen:
          submit_monitor_open(conn, std::move(req));
          break;
        case RequestOp::kMonitorStep:
          handle_monitor_step(conn, req);
          break;
        case RequestOp::kMonitorClose:
          handle_monitor_close(conn, req);
          break;
      }
    }

    void process_lines(Connection& conn, bool stopping) {
      std::size_t start = 0;
      while (conn.fd >= 0 && !conn.closing) {
        const std::size_t nl = conn.in.find('\n', start);
        if (nl == std::string::npos) break;
        const std::string_view line =
            strip_cr(std::string_view(conn.in).substr(start, nl - start));
        start = nl + 1;
        if (!line.empty()) handle_line(conn, line, stopping);
      }
      conn.in.erase(0, start);
      if (conn.in.size() > impl.options.max_request_bytes && !conn.closing) {
        impl.c_proto_err.fetch_add(1, std::memory_order_relaxed);
        send_line(conn, render_error(std::nullopt, "bad_request",
                                     "request line too large"));
        conn.closing = true;
        conn.in.clear();
      }
    }

    void read_from(Connection& conn, Clock::time_point now, bool stopping) {
      char buffer[65536];
      while (conn.fd >= 0) {
        const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
        if (n > 0) {
          impl.c_bytes_read.fetch_add(static_cast<std::uint64_t>(n),
                                      std::memory_order_relaxed);
          conn.in.append(buffer, static_cast<std::size_t>(n));
          conn.last_activity = now;
          continue;
        }
        if (n == 0) {
          conn.read_closed = true;
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        close_fd(conn);
        return;
      }
      process_lines(conn, stopping);
    }

    void adopt(int cfd, Clock::time_point now) {
      const std::uint64_t id = next_conn_id++;
      Connection conn;
      conn.fd = cfd;
      conn.id = id;
      conn.last_activity = now;
      connections.emplace(id, std::move(conn));
    }

    void accept_clients(Clock::time_point now) {
      // The connection cap is global: with reuseport listeners each
      // reactor accepts its own kernel-routed share; in handoff mode only
      // this (acceptor) reactor runs the loop and deals the fds out.
      while (impl.c_open.load(std::memory_order_relaxed) <
             impl.options.max_connections) {
        bool soft_error = false;
        const int cfd = listener.accept_client(&soft_error);
        if (cfd < 0) {
          if (soft_error) {
            impl.c_accept_soft.fetch_add(1, std::memory_order_relaxed);
            if (!impl.accept_error_logged.exchange(
                    true, std::memory_order_relaxed)) {
              // Once per exhaustion episode, not per retry: the counter
              // carries the rate, the log line carries the diagnosis.
              std::fprintf(stderr,
                           "rlv::net: accept: %s — pausing listener until a "
                           "connection closes\n",
                           std::strerror(errno));
            }
            accept_paused = true;
            accept_retry_at = now + kAcceptRetryBackoff;
          }
          return;
        }
        impl.accept_error_logged.store(false, std::memory_order_relaxed);
        impl.c_accepted.fetch_add(1, std::memory_order_relaxed);
        impl.c_open.fetch_add(1, std::memory_order_relaxed);
        if (impl.handoff_mode && impl.reactors.size() > 1) {
          const std::size_t target = rr_next++ % impl.reactors.size();
          if (target != index) {
            impl.reactors[target]->sink->post_fd(cfd);
            continue;
          }
        }
        adopt(cfd, now);
      }
    }

    void drain_completions(Clock::time_point now) {
      std::vector<Completion> items;
      {
        std::lock_guard lock(sink->mutex);
        items.swap(sink->items);
      }
      const bool stopping = impl.stop.load(std::memory_order_acquire);
      for (Completion& completion : items) {
        if (completion.handoff_fd >= 0) {
          // A socket the acceptor dealt to this reactor. During drain
          // nobody should adopt new clients — close it (the acceptor
          // already counted it open).
          if (stopping) {
            ::close(completion.handoff_fd);
            impl.c_open.fetch_sub(1, std::memory_order_relaxed);
          } else {
            adopt(completion.handoff_fd, now);
          }
          continue;
        }
        impl.global_inflight.fetch_sub(1, std::memory_order_relaxed);
        if (local_inflight > 0) --local_inflight;
        const auto it = connections.find(completion.conn_id);
        Connection* conn = it == connections.end() ? nullptr : &it->second;
        if (conn && completion.open && conn->pending_opens > 0) {
          --conn->pending_opens;
        }
        if (conn && conn->inflight > 0) --conn->inflight;
        if (!conn || conn->fd < 0) {
          // Client left before the open finished: the session would leak
          // in the engine table with nobody able to step or close it.
          if (completion.open && completion.session != 0) {
            (void)engine().close_monitor(completion.session);
          }
          continue;
        }
        if (completion.open && completion.session != 0) {
          conn->sessions.insert(completion.session);
        }
        conn->out += completion.line;
        conn->out += '\n';
        flush_writes(*conn);
      }
    }

    int poll_timeout(bool stopping,
                     const std::optional<Clock::time_point>& drain_deadline,
                     Clock::time_point now) const {
      std::int64_t timeout = -1;
      const auto consider = [&](Clock::time_point deadline) {
        const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now)
                            .count();
        const std::int64_t clamped = ms < 0 ? 0 : ms + 1;
        if (timeout < 0 || clamped < timeout) timeout = clamped;
      };
      if (stopping && drain_deadline) consider(*drain_deadline);
      if (!stopping && accept_paused) consider(accept_retry_at);
      if (!stopping && impl.options.session_idle_timeout_ms > 0) {
        // Idle-session GC runs on loop passes; wake at least once per
        // timeout interval so sessions expire without client traffic.
        consider(now + std::chrono::milliseconds(
                           impl.options.session_idle_timeout_ms));
      }
      if (!stopping && impl.options.idle_timeout_ms > 0) {
        for (const auto& [id, conn] : connections) {
          if (conn.fd < 0 || conn.inflight > 0 || !conn.out.empty()) continue;
          consider(conn.last_activity +
                   std::chrono::milliseconds(impl.options.idle_timeout_ms));
        }
      }
      if (timeout > 60000) timeout = 60000;
      return static_cast<int>(timeout);
    }

    void run() {
      sink->owner.store(std::this_thread::get_id(), std::memory_order_relaxed);
      std::optional<Clock::time_point> drain_deadline;
      std::vector<pollfd> fds;
      std::vector<std::uint64_t> owners;  // sentinels above, or conn id
      while (true) {
        drain_completions(Clock::now());
        const bool stopping = impl.stop.load(std::memory_order_acquire);
        Clock::time_point now = Clock::now();
        if (stopping) {
          listener.close();
          if (!drain_deadline) {
            drain_deadline =
                now + std::chrono::milliseconds(impl.options.drain_timeout_ms);
          }
        }
        // Reap: broken sockets, protocol-error closes whose responses have
        // flushed, half-closed clients with nothing pending, and — during
        // drain — every connection that is fully answered.
        for (auto it = connections.begin(); it != connections.end();) {
          Connection& conn = it->second;
          const bool answered = conn.inflight == 0 && conn.out.empty();
          if (conn.fd < 0 || (conn.closing && conn.out.empty()) ||
              ((conn.read_closed || stopping) && answered)) {
            close_fd(conn);
            it = connections.erase(it);
          } else {
            ++it;
          }
        }
        if (stopping) {
          if (local_inflight == 0 && connections.empty()) break;
          if (now >= *drain_deadline) break;  // give up on stragglers
        }

        fds.clear();
        owners.clear();
        fds.push_back({wake_read, POLLIN, 0});
        owners.push_back(kWakeOwner);
        if (!stopping && listener.open() &&
            impl.c_open.load(std::memory_order_relaxed) <
                impl.options.max_connections) {
          if (accept_paused && now < accept_retry_at) {
            // fd pressure: leave the listener out of the poll set; the
            // pending backlog is re-examined when a connection closes or
            // the backoff elapses (poll_timeout covers the wake-up).
          } else {
            accept_paused = false;
            fds.push_back({listener.fd(), POLLIN, 0});
            owners.push_back(kListenerOwner);
          }
        }
        for (auto& [id, conn] : connections) {
          short events = 0;
          if (!stopping && !conn.closing && !conn.read_closed &&
              conn.out.size() <= impl.options.max_write_buffer) {
            events |= POLLIN;
          }
          if (!conn.out.empty()) events |= POLLOUT;
          if (events == 0) continue;  // waiting only on completions
          fds.push_back({conn.fd, events, 0});
          owners.push_back(id);
        }

        const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                             poll_timeout(stopping, drain_deadline, now));
        if (n < 0) {
          if (errno == EINTR) continue;
          throw_errno("poll");
        }
        now = Clock::now();
        if (fds[0].revents & POLLIN) {
          char buffer[256];
          while (::read(wake_read, buffer, sizeof buffer) > 0) {
          }
        }
        for (std::size_t i = 1; i < fds.size(); ++i) {
          if (owners[i] == kListenerOwner) {
            if (fds[i].revents & POLLIN) accept_clients(now);
            continue;
          }
          const auto it = connections.find(owners[i]);
          if (it == connections.end()) continue;
          Connection& conn = it->second;
          if (fds[i].revents & POLLOUT) flush_writes(conn);
          if (conn.fd >= 0 && (fds[i].revents & POLLIN)) {
            read_from(conn, now, stopping);
          }
          if (conn.fd >= 0 && (fds[i].revents & (POLLERR | POLLNVAL))) {
            close_fd(conn);
          }
          // POLLHUP with no POLLIN: nothing left to read, peer is gone.
          if (conn.fd >= 0 && (fds[i].revents & POLLHUP) &&
              !(fds[i].revents & POLLIN)) {
            conn.read_closed = true;
          }
        }
        if (!stopping && impl.options.idle_timeout_ms > 0) {
          for (auto& [id, conn] : connections) {
            if (conn.fd < 0 || conn.inflight > 0 || !conn.out.empty()) {
              continue;
            }
            if (now - conn.last_activity >=
                std::chrono::milliseconds(impl.options.idle_timeout_ms)) {
              impl.c_idle.fetch_add(1, std::memory_order_relaxed);
              close_fd(conn);
            }
          }
        }
        if (!stopping && index == 0 &&
            impl.options.session_idle_timeout_ms > 0) {
          // One sweeper is enough: the engine's table is shared, and
          // sessions reclaimed here linger in their owning connection's
          // set until the next step reports unknown_session — the
          // generation counter makes the stale ids inert on any reactor.
          (void)engine().sweep_idle_sessions(
              impl.options.session_idle_timeout_ms);
        }
      }
      for (auto& [id, conn] : connections) close_fd(conn);
      connections.clear();
      // Completions that raced the drain deadline (and handed-off fds
      // nobody will adopt) are dealt with once more; anything arriving
      // later hits the sink's destructor or the orphan path next drain.
      drain_completions(Clock::now());
    }

    [[nodiscard]] Engine& engine() const { return impl.engine; }
  };

  Impl(Engine& eng, ServerOptions opts)
      : engine(eng), options(std::move(opts)) {
    const std::size_t n = options.reactors == 0 ? 1 : options.reactors;
    reactors.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      reactors.push_back(std::make_unique<Reactor>(*this, i));
    }
    wake_fds.reserve(n);
    for (const auto& reactor : reactors) {
      wake_fds.push_back(reactor->sink->wake_fd);
    }
  }

  Engine& engine;
  ServerOptions options;
  std::uint16_t bound_port = 0;
  bool started = false;
  bool handoff_mode = false;  // single acceptor + round-robin fd handoff
  std::atomic<bool> stop{false};

  /// In-flight queries/opens across all reactors — the "server" overload
  /// scope. Relaxed is enough: the cap is advisory backpressure, and each
  /// reactor's own submissions are sequenced on its thread.
  std::atomic<std::size_t> global_inflight{0};

  // Counters are shared across reactors and aggregated on demand; every
  // reactor bumps them with relaxed fetch_adds.
  std::atomic<std::uint64_t> c_accepted{0};
  std::atomic<std::uint64_t> c_open{0};
  std::atomic<std::uint64_t> c_requests{0};
  std::atomic<std::uint64_t> c_queries{0};
  std::atomic<std::uint64_t> c_overload{0};
  std::atomic<std::uint64_t> c_proto_err{0};
  std::atomic<std::uint64_t> c_idle{0};
  std::atomic<std::uint64_t> c_bytes_read{0};
  std::atomic<std::uint64_t> c_bytes_written{0};
  std::atomic<std::uint64_t> c_accept_soft{0};
  std::atomic<bool> accept_error_logged{false};

  /// Declared LAST: reactor destructors (close_fd on leftover connections)
  /// still touch the counters and the engine reference above.
  std::vector<std::unique_ptr<Reactor>> reactors;
  /// The write ends of every reactor's wake pipe, frozen after
  /// construction so request_stop() can walk it from a signal handler.
  std::vector<int> wake_fds;

  [[nodiscard]] ServerCounters snapshot_counters() const {
    ServerCounters counters;
    counters.connections_accepted = c_accepted.load();
    counters.connections_open = c_open.load();
    counters.requests = c_requests.load();
    counters.queries = c_queries.load();
    counters.overload_rejects = c_overload.load();
    counters.protocol_errors = c_proto_err.load();
    counters.idle_closed = c_idle.load();
    counters.bytes_read = c_bytes_read.load();
    counters.bytes_written = c_bytes_written.load();
    counters.inflight = global_inflight.load();
    counters.accept_soft_errors = c_accept_soft.load();
    counters.reactors = reactors.size();
    return counters;
  }

  std::string render_server_stats(std::uint64_t id, bool stopping) {
    std::ostringstream out;
    out << "{\"id\":" << id
        << ",\"ok\":true,\"stats\":" << render_stats(engine.stats())
        << ",\"server\":" << render_server_counters(snapshot_counters(),
                                                    stopping)
        << "}";
    return out.str();
  }

  void start_listeners() {
    const std::size_t n = reactors.size();
    handoff_mode = options.force_acceptor_handoff || n == 1;
    if (n > 1 && !handoff_mode) {
      try {
        bound_port = reactors[0]->listener.listen(
            options.bind_address, options.port, options.backlog,
            /*reuse_port=*/true);
        for (std::size_t i = 1; i < n; ++i) {
          reactors[i]->listener.listen(options.bind_address, bound_port,
                                       options.backlog, /*reuse_port=*/true);
        }
        return;
      } catch (const std::exception&) {
        // No SO_REUSEPORT (or it was refused): one listener on reactor 0,
        // accepted fds dealt round-robin through the completion sinks.
        for (auto& reactor : reactors) reactor->listener.close();
        handoff_mode = true;
      }
    }
    bound_port = reactors[0]->listener.listen(options.bind_address,
                                              options.port, options.backlog);
  }

  void stop_all() {
    // Async-signal-safe: one atomic store plus one write(2) per reactor on
    // pipe fds that stay valid for the server's lifetime.
    stop.store(true, std::memory_order_release);
    const char byte = 's';
    for (const int fd : wake_fds) {
      [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
    }
  }

  void run_all() {
    if (!started) throw std::runtime_error("Server::run() before start()");
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto record_error = [&] {
      {
        std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      stop_all();  // one reactor failing must not strand the others
    };
    std::vector<std::thread> threads;
    threads.reserve(reactors.size() > 0 ? reactors.size() - 1 : 0);
    for (std::size_t i = 1; i < reactors.size(); ++i) {
      threads.emplace_back([this, i, &record_error] {
        try {
          reactors[i]->run();
        } catch (...) {
          record_error();
        }
      });
    }
    try {
      reactors[0]->run();
    } catch (...) {
      record_error();
    }
    for (std::thread& thread : threads) thread.join();
    if (error) std::rethrow_exception(error);
  }
};

Server::Server(Engine& engine, ServerOptions options)
    : impl_(std::make_unique<Impl>(engine, std::move(options))) {
  if (engine.workers() == 0) {
    // With jobs <= 1 Engine::submit runs the query inline on the caller —
    // which here would be an event loop, freezing every other client.
    throw std::invalid_argument(
        "net::Server requires an Engine with jobs >= 2 (a real worker pool)");
  }
}

Server::~Server() = default;

std::uint16_t Server::start() {
  // A client disconnecting mid-response must not kill the daemon: every
  // send() also passes MSG_NOSIGNAL, but third-party code (and the client
  // library, when used in-process) writes to sockets too.
  std::signal(SIGPIPE, SIG_IGN);
  impl_->start_listeners();
  impl_->started = true;
  return impl_->bound_port;
}

void Server::run() { impl_->run_all(); }

void Server::request_stop() { impl_->stop_all(); }

std::uint16_t Server::port() const { return impl_->bound_port; }

ServerCounters Server::counters() const { return impl_->snapshot_counters(); }

}  // namespace rlv::net
