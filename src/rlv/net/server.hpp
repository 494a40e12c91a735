#pragma once

// rlv::net::Server — the resident serving layer over rlv::Engine. One
// process owns one Engine (and thus one set of warm caches) and serves the
// newline-delimited JSON protocol of protocol.hpp to any number of
// concurrent TCP clients.
//
// Threading model: jobs + 1 symmetric threads (jobs = the engine's
// EngineOptions::jobs, at least 1; run() spawns jobs of them and becomes
// the last), all blocked in epoll_wait on one epoll set. Connections are
// registered EPOLLONESHOT, so the kernel hands each ready connection to one
// idle thread, which reads it and answers pings, stats, monitor steps and
// resident verdicts (Engine::lookup, O(request bytes)) itself. It re-arms
// the connection and then computes any miss it read (Engine::compute, or
// Engine::open_monitor for a monitor_open) on its own thread, when one of
// the jobs compute slots is free. Otherwise the miss is queued: a thread
// that finishes a computation takes queued work before it waits again,
// and queued work that finds a free slot wakes one idle thread through an
// eventfd. At most jobs threads compute, so one thread always waits on
// the epoll set and hits never queue behind a kernel. Connection state
// (buffers, in-flight counts, owned monitor sessions) sits under one
// server mutex, held only while that state changes — never while
// parsing, computing or rendering. A computing thread writes its own
// reply under the mutex, and an fd is closed only under it, so a reply
// can never reach a reused fd. The engine's own pool is never used.
//
// Backpressure: in-flight queries are bounded per connection and globally;
// a request over either bound is answered immediately with the structured
// "overloaded" rejection (scope "connection" / "server") instead of
// queueing without bound or stalling the socket. A connection whose write
// buffer exceeds max_write_buffer stops being read until the client
// drains it (TCP backpressure).
//
// Shutdown: request_stop() is async-signal-safe (an atomic store plus an
// eventfd write) so a SIGINT/SIGTERM handler can call it directly. The
// server then stops accepting and reading, lets its in-flight queries
// finish under their Budget deadlines (apply_limits gives every served
// query one), flushes buffered responses, reclaims its connections'
// monitor sessions, and returns. A drain deadline bounds the wait: past
// it, queued work is dropped and run() returns as soon as the
// computations already running end.
//
// fd exhaustion: accept(2) failing with EMFILE/ENFILE/ENOMEM/ENOBUFS is
// an overload signal, not a crash — the server logs once, bumps
// accept_soft_errors, and stops accepting until a connection closes (or a
// short retry backoff elapses). Established connections keep being served
// the whole time.

#include <cstdint>
#include <memory>
#include <string>

#include "rlv/engine/engine.hpp"
#include "rlv/net/protocol.hpp"

namespace rlv::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; start() returns the bound port
  int backlog = 64;
  std::size_t max_connections = 256;
  std::size_t max_inflight_per_connection = 8;
  std::size_t max_inflight = 64;  // across all connections
  /// A request line (and thus an embedded system text) larger than this is
  /// rejected and the connection closed — the parser never sees it.
  std::size_t max_request_bytes = 1 << 20;
  /// Above this many buffered unsent response bytes the connection is not
  /// read until the client catches up.
  std::size_t max_write_buffer = 8 << 20;
  std::uint64_t idle_timeout_ms = 120000;  // 0 = never close idle clients
  std::uint64_t drain_timeout_ms = 5000;   // bound on the graceful drain
  /// Monitor sessions untouched for this long are reclaimed by the loop
  /// (idle-session GC, independent of connection idle close); 0 = never.
  /// A later step on a reclaimed session reports "unknown_session".
  std::uint64_t session_idle_timeout_ms = 0;
  ServerLimits limits;  // caps/defaults for per-request overrides
};

/// RAII listening socket (IPv4, non-blocking). Split out of Server so tests
/// and future front ends (e.g. a unix-socket flavor) can reuse it.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds address:port (dotted IPv4; port 0 picks an ephemeral port) with
  /// SO_REUSEADDR and starts listening. Returns the bound port. Throws
  /// std::runtime_error on failure.
  std::uint16_t listen(const std::string& address, std::uint16_t port,
                       int backlog);

  /// Accepts one pending client as a non-blocking fd; -1 when none pending.
  /// fd exhaustion (EMFILE/ENFILE/ENOMEM/ENOBUFS) is reported by setting
  /// *soft_error instead of throwing — the caller backs off and retries;
  /// only genuinely unexpected failures throw.
  [[nodiscard]] int accept_client(bool* soft_error = nullptr);

  void close();
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool open() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

class Server {
 public:
  /// The engine must outlive the server. Its jobs option sets how many
  /// computations run at once (see the threading model above).
  Server(Engine& engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Installs SIGPIPE protection, binds, and listens. Returns the bound
  /// port (== options.port unless that was 0). Throws on bind failure.
  std::uint16_t start();

  /// Serves on jobs + 1 threads, the caller's among them. Blocks until
  /// request_stop() completes the drain. start() must have been called.
  void run();

  /// Begins graceful drain. Async-signal-safe; callable from any thread
  /// or from a signal handler, before or during run(). Idempotent.
  void request_stop();

  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] ServerCounters counters() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rlv::net
