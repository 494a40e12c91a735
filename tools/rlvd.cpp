// rlvd — batch verification front end and serving daemon for rlv::engine.
//
// Two modes share one engine and one record format:
//
//   batch (default)   read a line-oriented request file, answer, exit;
//   --serve <port>    stay resident, own the engine and its warm caches,
//                     and serve the newline-delimited JSON protocol of
//                     src/rlv/net/protocol.hpp to concurrent TCP clients.
//                     SIGINT/SIGTERM triggers a graceful drain (stop
//                     accepting, finish in-flight queries under their
//                     Budget deadlines, flush responses, exit 0).
//
// In batch mode rlvd reads from a file (or stdin when the path is "-" or
// omitted), executes every query through the concurrent engine, and emits
// exactly one JSON object per query, in input order, on stdout. Request
// lines (CRLF input is accepted — lines are chomped through
// rlv::strip_cr, the same helper the network protocol uses):
//
//   <system-file> [--check rl|rs|sat|fair|fairweak]
//                 [--property-aut <buchi-file>] [<formula...>]
//
// Everything after the system path and the optional flags is the PLTL
// formula; with --property-aut the property is a Büchi automaton file
// instead and the formula must be absent. '#' starts a comment and blank
// lines are skipped. System and property paths are resolved relative to
// the batch file's directory (relative to the working directory when
// reading stdin).
//
// Result lines (one per query):
//
//   {"id":0,"system":"fig2.rlv","check":"rl","formula":"G F result",
//    "ok":true,"holds":true,"witness":"...",
//    "witness_prefix":["req"],"witness_period":["ack"],"ms":0.42,
//    "stages":{"parse":0.01,"translate":0.2,...},
//    "cache":{"hits":12,"misses":4,"evictions":0}}
//
// (see src/rlv/engine/record.hpp for the exact record shape — the
// structured witness arrays are the machine-readable form certificate
// round-trips should consume)
//
// A query that hits the --timeout-ms / --max-states budget reports
// "ok":false,"resource_exhausted":true,"stage":"<tripping stage>" — its
// siblings are unaffected. "stages" maps each pipeline stage that ran to
// its exclusive milliseconds. "cache" is the engine-wide cumulative counter
// snapshot (hits + misses + evictions summed over all caches) at the time
// the result line is emitted. A summary line with the full per-cache
// EngineStats breakdown goes to stderr.
//
// Options:
//   --jobs N        worker threads (default 1: sequential; 2 with --serve)
//   --cache N       per-cache capacity in entries (default 256)
//   --timeout-ms N  per-query wall-clock budget (default 0: unlimited)
//   --max-states N  per-query constructed-state budget (default 0)
//   --certify       revalidate every negative verdict's witness with the
//                   independent certificate checker before it is cached; a
//                   rejected witness turns the record into "ok":false with
//                   an "error" naming the failed certificate
//   --metrics       emit an end-of-batch JSON metrics summary on stdout
//
// Serving options (with --serve; --timeout-ms doubles as the cap on
// client-supplied budgets and defaults to 30000 when unset, so drain can
// rely on every in-flight query expiring):
//   --bind ADDR            listen address (default 127.0.0.1)
//   --max-inflight N       global concurrent-query bound (default 64)
//   --max-conn-inflight N  per-connection bound (default 8)
//   --max-connections N    accepted-client bound (default 256)
//   --idle-timeout-ms N    close silent connections (default 120000)
//   --drain-timeout-ms N   graceful-shutdown bound (default 5000)
//   --max-sessions N       global cap on open monitor sessions (65536)
//   --max-conn-sessions N  per-connection monitor-session cap (4096)
//   --max-steps-per-request N  monitor_step batch cap (8192)
//   --session-idle-timeout-ms N  reclaim idle monitor sessions (0 = never)
//
// In serve mode --jobs N (default 2) is the number of computations that
// run at once. The daemon serves on N + 1 threads: each computes the
// misses it reads while a slot is free, and at least one is always free to
// answer pings, stats, monitor steps and cached verdicts.
//
// Exit status: 0 = every line executed (whatever the verdicts) or clean
// serve shutdown, 2 = bad invocation, unreadable batch file, or a
// malformed request line.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "rlv/engine/engine.hpp"
#include "rlv/engine/record.hpp"
#include "rlv/io/format.hpp"
#include "rlv/io/json_writer.hpp"
#include "rlv/net/server.hpp"

#include "cli_flags.hpp"

namespace {

using namespace rlv;

int usage() {
  std::fprintf(
      stderr,
      "usage: rlvd [<batch-file>|-] [--jobs N] [--cache N] [--timeout-ms N]"
      " [--max-states N] [--certify] [--metrics]\n"
      "       rlvd --serve <port> [--bind ADDR] [--jobs N] [--cache N]"
      " [--timeout-ms N] [--max-states N] [--certify]\n"
      "            [--max-inflight N] [--max-conn-inflight N]"
      " [--max-connections N] [--idle-timeout-ms N] [--drain-timeout-ms N]\n"
      "            [--max-sessions N] [--max-conn-sessions N]"
      " [--max-steps-per-request N] [--session-idle-timeout-ms N]\n"
      "  batch line: <system-file> [--check rl|rs|sat|fair|fairweak]"
      " [--property-aut <file>] [<formula...>]\n");
  return 2;
}

std::atomic<net::Server*> g_server{nullptr};

void handle_stop_signal(int) {
  if (net::Server* server = g_server.load(std::memory_order_acquire)) {
    server->request_stop();  // async-signal-safe: atomic store + eventfd write
  }
}

int serve(EngineOptions engine_options, net::ServerOptions server_options) {
  // Serving without any per-query deadline would leave drain at the mercy
  // of the slowest query; default the cap (which also serves as the
  // per-request default) unless the operator chose one.
  if (engine_options.timeout_ms == 0) engine_options.timeout_ms = 30000;
  server_options.limits.max_timeout_ms = engine_options.timeout_ms;
  server_options.limits.max_max_states = engine_options.max_states;

  Engine engine(engine_options);
  net::Server server(engine, server_options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  g_server.store(&server, std::memory_order_release);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::fprintf(stderr,
               "rlvd: serving on %s:%u (jobs=%zu, threads=%zu, "
               "timeout-ms=%llu)\n",
               server_options.bind_address.c_str(), server.port(),
               engine_options.jobs, engine_options.jobs + 1,
               static_cast<unsigned long long>(engine_options.timeout_ms));
  server.run();
  g_server.store(nullptr, std::memory_order_release);
  const net::ServerCounters counters = server.counters();
  std::fprintf(stderr,
               "rlvd: drained (connections=%llu, requests=%llu, "
               "queries=%llu, overload_rejects=%llu, protocol_errors=%llu)\n",
               static_cast<unsigned long long>(counters.connections_accepted),
               static_cast<unsigned long long>(counters.requests),
               static_cast<unsigned long long>(counters.queries),
               static_cast<unsigned long long>(counters.overload_rejects),
               static_cast<unsigned long long>(counters.protocol_errors));
  std::fprintf(stderr, "rlvd: %s\n", render_stats(engine.stats()).c_str());
  return 0;
}

struct Request {
  std::string system_path;    // as written in the batch file
  std::string property_path;  // with --property-aut
  Query query;
};

std::string resolve(const std::string& path, const std::string& base_dir) {
  if (!base_dir.empty() && path[0] != '/') return base_dir + "/" + path;
  return path;
}

/// Splits one request line; returns nullopt for blanks/comments, throws
/// std::runtime_error on malformed lines.
std::optional<Request> parse_request_line(const std::string& line,
                                          const std::string& base_dir) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) {
    if (token[0] == '#') break;
    tokens.push_back(token);
  }
  if (tokens.empty()) return std::nullopt;

  Request request;
  request.system_path = tokens[0];
  std::size_t i = 1;
  while (i < tokens.size()) {
    if (i + 1 < tokens.size() && tokens[i] == "--check") {
      const auto kind = parse_check_kind(tokens[i + 1]);
      if (!kind) {
        throw std::runtime_error("unknown check kind '" + tokens[i + 1] + "'");
      }
      request.query.kind = *kind;
      i += 2;
    } else if (i + 1 < tokens.size() && tokens[i] == "--property-aut") {
      request.property_path = tokens[i + 1];
      i += 2;
    } else {
      break;
    }
  }
  std::string formula;
  for (; i < tokens.size(); ++i) {
    if (!formula.empty()) formula += ' ';
    formula += tokens[i];
  }
  if (request.property_path.empty()) {
    if (formula.empty()) throw std::runtime_error("missing formula");
  } else {
    if (!formula.empty()) {
      throw std::runtime_error(
          "formula and --property-aut are mutually exclusive");
    }
    request.query.property_automaton =
        read_file(resolve(request.property_path, base_dir));
  }
  request.query.formula = std::move(formula);
  request.query.system = read_file(resolve(request.system_path, base_dir));
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  std::string batch_path = "-";
  EngineOptions options;
  net::ServerOptions server_options;
  bool have_path = false;
  bool metrics = false;
  bool serve_mode = false;
  bool jobs_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Each numeric flag: its value, or usage on anything but digits in range.
    const auto number = [&](auto& out, std::uint64_t min = 0,
                            std::uint64_t max = UINT64_MAX) {
      return cli::parse_number(argv[++i], out, min, max);
    };
    const bool has_value = i + 1 < argc;
    if (arg == "--serve" && has_value) {
      if (!number(server_options.port)) return usage();
      serve_mode = true;
    } else if (arg == "--bind" && has_value) {
      server_options.bind_address = argv[++i];
    } else if (arg == "--max-inflight" && has_value) {
      if (!number(server_options.max_inflight, 1)) return usage();
    } else if (arg == "--max-conn-inflight" && has_value) {
      if (!number(server_options.max_inflight_per_connection, 1)) {
        return usage();
      }
    } else if (arg == "--max-connections" && has_value) {
      if (!number(server_options.max_connections, 1)) return usage();
    } else if (arg == "--idle-timeout-ms" && has_value) {
      if (!number(server_options.idle_timeout_ms, 0, cli::kMaxMillis)) {
        return usage();
      }
    } else if (arg == "--drain-timeout-ms" && has_value) {
      if (!number(server_options.drain_timeout_ms, 0, cli::kMaxMillis)) {
        return usage();
      }
    } else if (arg == "--session-idle-timeout-ms" && has_value) {
      if (!number(server_options.session_idle_timeout_ms, 0,
                  cli::kMaxMillis)) {
        return usage();
      }
    } else if (arg == "--max-sessions" && has_value) {
      if (!number(options.max_sessions)) return usage();
    } else if (arg == "--max-conn-sessions" && has_value) {
      if (!number(server_options.limits.max_sessions_per_connection, 1)) {
        return usage();
      }
    } else if (arg == "--max-steps-per-request" && has_value) {
      if (!number(server_options.limits.max_steps_per_request, 1)) {
        return usage();
      }
    } else if (arg == "--jobs" && has_value) {
      if (!number(options.jobs, 1, cli::kMaxThreads)) return usage();
      jobs_given = true;
    } else if (arg == "--cache" && has_value) {
      if (!number(options.cache_capacity, 1)) return usage();
    } else if (arg == "--timeout-ms" && has_value) {
      if (!number(options.timeout_ms, 0, cli::kMaxMillis)) return usage();
    } else if (arg == "--max-states" && has_value) {
      if (!number(options.max_states)) return usage();
    } else if (arg == "--certify") {
      options.certify_verdicts = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (!have_path) {
      batch_path = arg;
      have_path = true;
    } else {
      return usage();
    }
  }

  if (serve_mode) {
    if (have_path || metrics) return usage();
    if (!jobs_given) options.jobs = 2;
    try {
      return serve(options, server_options);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  std::string base_dir;
  std::istringstream file_input;
  std::istream* in = &std::cin;
  if (batch_path != "-") {
    try {
      file_input.str(read_file(batch_path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    in = &file_input;
    const std::size_t slash = batch_path.rfind('/');
    if (slash != std::string::npos) base_dir = batch_path.substr(0, slash);
  }

  std::vector<Request> requests;
  std::string line;
  for (std::size_t line_number = 1; std::getline(*in, line); ++line_number) {
    try {
      // CRLF batch files (network clients, Windows editors) are chomped
      // through the same helper the wire protocol uses.
      auto request =
          parse_request_line(std::string(strip_cr(line)), base_dir);
      if (request) requests.push_back(std::move(*request));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: line %zu: %s\n", line_number, e.what());
      return 2;
    }
  }

  const auto batch_start = std::chrono::steady_clock::now();
  Engine engine(options);
  std::vector<Query> queries;
  queries.reserve(requests.size());
  for (const Request& r : requests) queries.push_back(r.query);
  const std::vector<Verdict> verdicts = engine.run(queries);
  const double batch_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - batch_start)
                              .count();

  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const Request& request = requests[i];
    const std::string record = render_query_record(
        i, request.query, verdicts[i], request.system_path,
        request.property_path, engine.cache_totals());
    std::puts(record.c_str());
  }

  const EngineStats stats = engine.stats();
  const std::string stats_json = render_stats(stats);

  if (metrics) {
    // End-of-batch machine-readable summary: the shared EngineStats
    // serialization (per-cache counters + per-stage calls/states/frontier
    // peaks/exclusive ms) plus batch wall time, on stdout so it rides the
    // same pipe as the results.
    std::string line;
    JsonWriter w(line);
    w.begin_object().key("metrics").begin_object().field("wall_ms", batch_ms);
    w.key("stats").raw(stats_json).end_object().end_object();
    std::puts(line.c_str());
  }

  std::fprintf(stderr, "rlvd: %s\n", stats_json.c_str());
  return 0;
}
