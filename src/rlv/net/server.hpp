#pragma once

// rlv::net::Server — the resident serving layer over rlv::Engine. One
// process owns one Engine (and thus one set of warm caches) and serves the
// newline-delimited JSON protocol of protocol.hpp to any number of
// concurrent TCP clients.
//
// Threading model: N reactor threads (options.reactors; run() spawns
// N-1 and becomes reactor 0), each a self-contained poll(2) event loop
// owning its own listener fd, pollfd table, connection map, wake pipe,
// completion sink, and monitor-session-ownership sets — no connection
// state is ever shared across reactors, so the loops need no locks
// between them. Incoming connections are spread by the kernel via
// SO_REUSEPORT (every reactor listens on the same address); when that
// is unavailable (or force_acceptor_handoff is set), reactor 0 keeps
// the only listener and hands accepted fds round-robin to the other
// reactors through their completion sinks. A reactor answers a query
// whose verdict is already resident itself, inside Engine::submit, in
// O(request bytes) — the record goes into its own completion sink with no
// self-pipe wake and out before the next poll. Everything that parses a
// system, translates, or runs a kernel happens on the Engine's worker
// pool; those results are rendered on the worker thread and handed back
// through the owning reactor's mutex-protected completion queue plus a
// self-pipe wakeup. Because the engine runs misses inline when built
// with jobs <= 1, a Server requires an Engine with jobs >= 2.
//
// Backpressure: in-flight queries are bounded per connection and globally;
// a request over either bound is answered immediately with the structured
// "overloaded" rejection (scope "connection" / "server") instead of
// queueing without bound or stalling the socket. A connection whose write
// buffer exceeds max_write_buffer stops being read until the client
// drains it (TCP backpressure).
//
// Shutdown: request_stop() is async-signal-safe (an atomic store plus a
// write to every reactor's self-pipe) so a SIGINT/SIGTERM handler can
// call it directly. Each reactor then stops accepting and reading, lets
// its in-flight queries finish under their Budget deadlines
// (apply_limits gives every served query one), flushes buffered
// responses, reclaims its connections' monitor sessions, and returns;
// a drain deadline bounds the wait against budget-less stragglers.
// run() returns once every reactor has drained.
//
// fd exhaustion: accept(2) failing with EMFILE/ENFILE/ENOMEM/ENOBUFS is
// an overload signal, not a crash — the reactor logs once, bumps
// accept_soft_errors, and stops polling its listener until one of its
// connections closes (or a short retry backoff elapses). Established
// connections keep being served the whole time.

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
  /// Event-loop reactors. 1 keeps the classic single-loop server; N > 1
  /// runs N independent loops (run() spawns N-1 threads), sharing only the
  /// engine, the global in-flight gauge, and the stats counters.
  std::size_t reactors = 1;
  /// Forces the single-acceptor round-robin fd-handoff path even where
  /// SO_REUSEPORT is available. Deterministic connection placement —
  /// client k lands on reactor k mod N — which the multi-reactor tests
  /// rely on; also the automatic fallback when a reuseport bind fails.
  bool force_acceptor_handoff = false;
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
  /// SO_REUSEADDR (plus SO_REUSEPORT when `reuse_port` — the multi-reactor
  /// mode, where every reactor binds the same port and the kernel spreads
  /// connections) and starts listening. Returns the bound port. Throws
  /// std::runtime_error on failure.
  std::uint16_t listen(const std::string& address, std::uint16_t port,
                       int backlog, bool reuse_port = false);

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
  /// The engine must outlive the server AND be built with jobs >= 2 (see
  /// the threading model above); the constructor enforces the latter.
  Server(Engine& engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Installs SIGPIPE protection, binds, and listens. Returns the bound
  /// port (== options.port unless that was 0). Throws on bind failure.
  std::uint16_t start();

  /// The event loop. Blocks until request_stop() completes the drain.
  /// start() must have been called.
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
