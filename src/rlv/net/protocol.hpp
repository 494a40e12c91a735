#pragma once

// The rlvd wire protocol: newline-delimited JSON, one request object per
// line, one response object per line. Requests map 1:1 onto
// rlv::engine::Query; query responses are exactly the records
// render_query_record emits for the batch front end (plus the echoed
// request "id"), so a client that already consumes rlvd batch output can
// consume the wire verbatim.
//
// Request object:
//
//   {"op":"query",                      // default; also "stats", "ping"
//    "id":7,                            // echoed on the response
//    "system":"alphabet: a b\n...",     // rlv/io system text, REQUIRED
//    "formula":"G F result",            // PLTL (or property_automaton)
//    "property_automaton":"...",        // Büchi text, excludes "formula"
//    "check":"rl",                      // rl|rs|sat|fair|fairweak
//    "timeout_ms":500,"max_states":1e6, // per-query budget overrides
//    "certify":true,                    // request certificate validation
//    "label":"fig2"}                    // presentation name in the record
//
// Client-supplied budget values are clamped to the server's caps
// by apply_limits(); certify can only strengthen the engine's policy
// (monotone: a request never disables server-side certification).
//
// Response shapes (all single-line JSON):
//
//   query    {"id":7,"system":"fig2","check":"rl",...}   (the rlvd record)
//   stats    {"id":3,"ok":true,"stats":{...},"server":{...}}
//   ping     {"id":1,"ok":true,"pong":true}
//   error    {"id":7,"ok":false,"error":"bad_request","detail":"..."}
//   overload {"id":7,"ok":false,"error":"overloaded","overloaded":true,
//             "scope":"server"}        // or "connection"
//
// Budget-tripped queries report through the record's
// "resource_exhausted":true shape, exactly as in batch mode.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "rlv/engine/query.hpp"

namespace rlv::net {

/// Server-side caps applied to client-supplied per-query overrides. A zero
/// cap means "unlimited"; a nonzero cap also acts as the default for
/// requests that specify no budget, so every served query carries a
/// deadline the drain path can rely on.
struct ServerLimits {
  std::uint64_t max_timeout_ms = 30000;
  std::uint64_t max_max_states = 0;
  /// Monitor-session caps: how many streaming sessions one connection may
  /// hold open, and how many actions one monitor_step may batch. Requests
  /// over these caps are rejected deterministically ("connection_sessions"
  /// overload / "too_many_steps" error) without closing the connection.
  std::size_t max_sessions_per_connection = 4096;
  std::size_t max_steps_per_request = 8192;
};

/// Serving-layer counters and gauges, snapshot via Server::counters() (any
/// thread) and serialized into the "server" object of a stats response.
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t requests = 0;  // parsed protocol lines, any op
  std::uint64_t queries = 0;   // submitted to the engine
  std::uint64_t overload_rejects = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t idle_closed = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t inflight = 0;  // currently submitted, response not yet queued
  /// accept(2) failures from resource pressure (EMFILE/ENFILE/ENOMEM/
  /// ENOBUFS). Each one pauses the listener instead of killing the server;
  /// a rising value under load means the fd limit is the bottleneck (see
  /// docs/usage.md §12).
  std::uint64_t accept_soft_errors = 0;
  std::uint64_t computing = 0;     // busy compute slots (of --jobs)
  std::uint64_t queued = 0;        // computations waiting for a slot
  std::uint64_t queued_total = 0;  // computations that ever waited
};

enum class RequestOp : std::uint8_t {
  kQuery,
  kStats,
  kPing,
  kMonitorOpen,
  kMonitorStep,
  kMonitorClose,
};

struct Request {
  RequestOp op = RequestOp::kQuery;
  std::uint64_t id = 0;
  std::string label;     // presentation label; "inline" when absent
  Query query;           // populated for kQuery
  MonitorSpec monitor;   // populated for kMonitorOpen
  std::uint64_t session = 0;          // kMonitorStep / kMonitorClose
  std::vector<std::string> actions;   // kMonitorStep batch
};

/// Parses one request line (already stripped of the trailing newline/CR).
/// Throws std::runtime_error with a message safe to echo to the client;
/// never reads files or touches engine state.
[[nodiscard]] Request parse_request(std::string_view line);

/// Clamps the query's client-supplied overrides to the server caps, and
/// applies the budget caps as defaults where the client sent none.
void apply_limits(Query& query, const ServerLimits& limits);

/// {"id":N,"ok":false,"error":"<code>","detail":"..."} — `detail` omitted
/// when empty, `id` omitted when the request id could not be parsed.
[[nodiscard]] std::string render_error(std::optional<std::uint64_t> id,
                                       std::string_view code,
                                       std::string_view detail);

/// The structured backpressure rejection; scope is "connection" or
/// "server" depending on which in-flight cap tripped — or, for monitor
/// opens, "sessions" (global table full) / "connection_sessions" (per-
/// connection cap).
[[nodiscard]] std::string render_overloaded(std::uint64_t id,
                                            std::string_view scope);

// ---------------------------------------------------------------------
// Streaming monitor responses. One line each:
//
//   monitor_open   {"id":N,"ok":true,"session":S,"verdict":"live",
//                   "certified":false,"ms":1.2}
//   monitor_step   {"id":N,"ok":true,"verdict":"doomed","events":4,
//                   "doomed_index":3,"witness":["request","yes","result",
//                   "lock"],"witness_certified":true}
//                  (a batch that leaves the system reports "left_index")
//   monitor_close  {"id":N,"ok":true,"closed":true,"events":4}
//
// Failed opens use the overload shape (table full), the
// resource_exhausted shape, or the plain error shape; step/close errors
// ("unknown_session", "unknown_action", "event_cap") use render_error.

[[nodiscard]] std::string render_monitor_open(std::uint64_t id,
                                              const MonitorOpenResult& r);

[[nodiscard]] std::string render_monitor_step(std::uint64_t id,
                                              const MonitorStepResult& r);

[[nodiscard]] std::string render_monitor_close(std::uint64_t id,
                                               const MonitorCloseResult& r);

}  // namespace rlv::net
