// rlv_loadgen — closed-loop load generator for `rlvd --serve`.
//
// Opens N connections, each driving M requests back-to-back (send one,
// wait for the response, send the next) over a fixed mixed workload built
// from the rlv::gen families (Figure 2/3 servers, token rings) across
// rl/rs/sat checks — the many-properties-few-systems shape the engine
// caches exist for. Reports throughput and latency percentiles as one
// JSON line on stdout:
//
//   {"loadgen":{"connections":4,"requests_per_connection":64,"total":256,
//    "errors":0,"overloaded":0,"exhausted":0,"wall_ms":812.437,
//    "throughput_rps":315.101,
//    "latency_ms":{"p50":2.90312,"p95":5.81,"p99":9.2244,"max":31.0217}}}
//
// With --stats, a final `stats` request is issued on a fresh connection
// and the raw response (EngineStats + server counters) is printed on
// stdout — the cache-effectiveness record E25 consumes.
//
// With --monitor, the generator switches to the streaming-monitor
// workload (record E26): open K sessions (one connection each) on the
// Figure 2 server with `G F result`, stream M locally-precomputed
// guaranteed-live events per session in batches of B, and report
// events/s plus per-event latency percentiles (batch RTT amortized over
// its events) as {"monitor_loadgen":{...}}. A deterministic doom leg then
// opens a certified Figure 3 session, streams the canonical dooming trace
// and asserts the doomed index, the certified witness, absorbing doom,
// and double-close behavior — wire-protocol verification riding along
// with the measurement.
//
// With --petri, the query workload is rebuilt from the rlv::petri scenario
// nets: each system is the serialized reachability-graph unfolding of a
// classic 1-safe net (Figure 1 resource server, bounded buffer, token-ring
// workflow, dining philosophers) — larger and deadlock-bearing, exercising
// the engine with Petri-shaped state spaces.
//
// Exit status: 0 = every response was a well-formed verdict (overload
// rejections and resource_exhausted are counted, not errors), 1 = at
// least one error/protocol failure, 2 = bad invocation or connect
// failure.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "rlv/engine/query.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/io/format.hpp"
#include "rlv/io/json_writer.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/monitor/automaton.hpp"
#include "rlv/net/client.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"

namespace {

using namespace rlv;

int usage() {
  std::fprintf(stderr,
               "usage: rlv_loadgen --port P [--host H] [--connections N]"
               " [--requests M] [--certify] [--stats] [--petri]\n"
               "       rlv_loadgen --port P --monitor [--sessions K]"
               " [--events M] [--batch B] [--stats]\n");
  return 2;
}

struct WorkItem {
  Query query;
  std::string label;
};

/// The serving workload: few systems, many properties, repeated across
/// every connection — maximal cache sharing, like production traffic.
std::vector<WorkItem> build_workload(bool certify) {
  const std::string fig2 = serialize_system(figure2_system());
  const std::string fig3 = serialize_system(figure3_system());
  const std::string ring3 = serialize_system(token_ring(3));
  const std::string ring5 = serialize_system(token_ring(5));

  std::vector<WorkItem> items;
  const auto add = [&](const std::string& system, const char* formula,
                       CheckKind kind, const char* label) {
    Query query;
    query.system = system;
    query.formula = formula;
    query.kind = kind;
    query.certify = certify;
    items.push_back({std::move(query), label});
  };
  add(fig2, "G F result", CheckKind::kRelativeLiveness, "fig2");
  add(fig2, "G F result", CheckKind::kRelativeSafety, "fig2");
  add(fig2, "G F result", CheckKind::kSatisfaction, "fig2");
  add(fig2, "G(result -> !(X result))", CheckKind::kSatisfaction, "fig2");
  add(fig2, "G(request -> F (result | reject))", CheckKind::kRelativeLiveness,
      "fig2");
  add(fig3, "G F result", CheckKind::kRelativeLiveness, "fig3");
  add(fig3, "G F result", CheckKind::kRelativeSafety, "fig3");
  add(ring3, "G F pass_0", CheckKind::kRelativeLiveness, "ring3");
  add(ring3, "G F work_1", CheckKind::kRelativeLiveness, "ring3");
  add(ring5, "G F pass_0", CheckKind::kRelativeLiveness, "ring5");
  add(ring5, "G F pass_0", CheckKind::kSatisfaction, "ring5");
  add(fig2, "F G result", CheckKind::kRelativeSafety, "fig2");
  return items;
}

/// The --petri workload: the systems are reachability-graph unfoldings of
/// the rlv::petri scenario nets instead of the hand-drawn figures — larger,
/// deadlock-bearing state spaces (philosophers(3) can wedge) with the same
/// few-systems/many-properties shape, so the engine's system cache is
/// stressed with Petri-sized inputs. Unfolding happens client-side; the
/// server sees ordinary serialized transition systems.
std::vector<WorkItem> build_petri_workload(bool certify) {
  const auto unfold = [](const PetriNet& net) {
    return serialize_system(build_reachability_graph(net).system);
  };
  const std::string fig1 = unfold(figure1_net());
  const std::string buffer4 = unfold(petri::bounded_buffer_net(4).net);
  const std::string ring4 = unfold(petri::ring_workflow_net(4).net);
  const std::string phil3 = unfold(petri::philosophers_net(3).net);

  std::vector<WorkItem> items;
  const auto add = [&](const std::string& system, const char* formula,
                       CheckKind kind, const char* label) {
    Query query;
    query.system = system;
    query.formula = formula;
    query.kind = kind;
    query.certify = certify;
    items.push_back({std::move(query), label});
  };
  add(fig1, "G F result", CheckKind::kRelativeLiveness, "fig1");
  add(fig1, "G F result", CheckKind::kRelativeSafety, "fig1");
  add(fig1, "G(request -> F (result | reject))", CheckKind::kRelativeLiveness,
      "fig1");
  add(fig1, "G(result -> !(X result))", CheckKind::kSatisfaction, "fig1");
  add(buffer4, "G F produce", CheckKind::kRelativeLiveness, "buffer4");
  add(buffer4, "G(produce -> F consume)", CheckKind::kRelativeLiveness,
      "buffer4");
  add(buffer4, "G F consume", CheckKind::kSatisfaction, "buffer4");
  add(ring4, "G F work_0", CheckKind::kRelativeLiveness, "ring4");
  add(ring4, "G F pass_0", CheckKind::kRelativeLiveness, "ring4");
  add(phil3, "G F eat_0", CheckKind::kRelativeLiveness, "phil3");
  add(phil3, "F eat_0", CheckKind::kRelativeSafety, "phil3");
  add(phil3, "G F eat_0", CheckKind::kSatisfaction, "phil3");
  return items;
}

struct ThreadResult {
  std::vector<double> latencies_ms;
  std::uint64_t errors = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t exhausted = 0;
};

/// Runs `body(t)` on `n` threads at once; returns the wall time in ms.
double run_threads(std::size_t n,
                   const std::function<void(std::size_t)>& body) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t t = 0; t < n; ++t) threads.emplace_back(body, t);
  for (std::thread& thread : threads) thread.join();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Every thread's result summed, with all latencies in ascending order.
ThreadResult sum(const std::vector<ThreadResult>& results) {
  ThreadResult total;
  for (const ThreadResult& r : results) {
    total.latencies_ms.insert(total.latencies_ms.end(), r.latencies_ms.begin(),
                              r.latencies_ms.end());
    total.errors += r.errors;
    total.overloaded += r.overloaded;
    total.exhausted += r.exhausted;
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  return total;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Writes the "latency_ms" member and closes a summary line.
void finish_summary(JsonWriter& w, const std::vector<double>& sorted) {
  w.key("latency_ms").begin_object();
  w.field("p50", percentile(sorted, 0.50));
  w.field("p95", percentile(sorted, 0.95));
  w.field("p99", percentile(sorted, 0.99));
  w.field("max", sorted.empty() ? 0.0 : sorted.back());
  w.end_object().end_object().end_object();
}

/// A trace of `events` actions guaranteed to keep the Figure 2 / GF result
/// monitor live: walk the locally compiled MonitorAutomaton greedily,
/// always taking the lowest symbol that stays kSatisfiable. The server
/// compiles the same automaton (same inputs), so every streamed batch must
/// answer "live" — any other verdict is a correctness error, not load.
std::vector<std::string> build_live_trace(std::size_t events) {
  const Nfa fig2 = figure2_system();
  const Buchi behaviors = limit_of_prefix_closed(fig2);
  const Labeling lambda = Labeling::canonical(fig2.alphabet());
  const monitor::MonitorAutomaton aut(behaviors, parse_ltl("G F result"),
                                      lambda);
  const Alphabet& sigma = *fig2.alphabet();
  std::vector<std::string> trace;
  trace.reserve(events);
  std::uint32_t state = aut.initial();
  for (std::size_t i = 0; i < events; ++i) {
    bool advanced = false;
    for (Symbol a = 0; a < sigma.size(); ++a) {
      const std::uint32_t next = aut.step(state, a);
      if (aut.verdict(next) == monitor::Verdict::kSatisfiable) {
        trace.push_back(sigma.name(a));
        state = next;
        advanced = true;
        break;
      }
    }
    if (!advanced) break;  // cannot happen for fig2: every live state has
                           // a live successor (the system is deadlock-free)
  }
  return trace;
}

/// The deterministic doom-protocol leg: one session on the buggy Figure 3
/// server with certification, stepped through the canonical dooming trace.
/// Every assertion failure counts as an error (the point is to verify the
/// wire protocol end to end, not to measure it).
std::uint64_t run_doom_assertions(const std::string& host, int port) {
  std::uint64_t errors = 0;
  const auto expect = [&errors](bool ok, const char* what) {
    if (!ok) {
      ++errors;
      std::fprintf(stderr, "error: doom assertion failed: %s\n", what);
    }
  };
  try {
    net::Client client;
    client.connect(host, static_cast<std::uint16_t>(port));
    MonitorSpec spec;
    spec.system = serialize_system(figure3_system());
    spec.formula = "G F result";
    spec.certify = true;
    const net::Response open = net::parse_response(
        client.call(net::render_monitor_open_request(spec, 1, "fig3")));
    expect(open.ok && open.has_session, "open fig3 certified");
    expect(open.verdict == "live", "fresh session is live");

    const std::vector<std::string> dooming = {"request", "yes", "result",
                                              "lock"};
    const net::Response doom = net::parse_response(client.call(
        net::render_monitor_step_request(open.session, dooming, 2)));
    expect(doom.ok, "dooming step answers ok");
    expect(doom.verdict == "doomed", "verdict is doomed after lock");
    expect(doom.has_doomed_index && doom.doomed_index == 3,
           "doom detected at batch index 3 (the lock)");
    expect(doom.witness_certified, "doom witness is certified");
    expect(doom.raw.find("\"witness\":[") != std::string::npos &&
               doom.raw.find("\"witness\":[]") == std::string::npos,
           "doom response carries a nonempty witness");

    const net::Response after = net::parse_response(client.call(
        net::render_monitor_step_request(open.session, {"request"}, 3)));
    expect(after.ok && after.verdict == "doomed" && !after.has_doomed_index,
           "doom is absorbing (no second transition report)");
    expect(after.events == 5, "event count accumulates across batches");

    const net::Response closed = net::parse_response(
        client.call(net::render_monitor_close_request(open.session, 4)));
    expect(closed.ok, "close succeeds");
    const net::Response again = net::parse_response(
        client.call(net::render_monitor_close_request(open.session, 5)));
    expect(!again.ok && again.error == "unknown_session",
           "double close reports unknown_session");
  } catch (const std::exception& e) {
    ++errors;
    std::fprintf(stderr, "error: doom assertion leg failed: %s\n", e.what());
  }
  return errors;
}

/// The streaming leg: prints the {"monitor_loadgen":{...}} line and
/// returns the error count, doom assertions included.
std::uint64_t run_monitor_mode(const std::string& host, int port,
                               std::size_t sessions, std::size_t events,
                               std::size_t batch) {
  const std::vector<std::string> trace = build_live_trace(events);
  const MonitorSpec spec{serialize_system(figure2_system()), "G F result"};

  std::vector<ThreadResult> results(sessions);
  const double wall_ms = run_threads(sessions, [&](std::size_t t) {
    ThreadResult& result = results[t];
    result.latencies_ms.reserve(trace.size() / batch + 1);
    net::Client client;
    try {
      client.connect(host, static_cast<std::uint16_t>(port));
      const net::Response open = net::parse_response(
          client.call(net::render_monitor_open_request(spec, t, "fig2")));
      if (open.overloaded) {
        ++result.overloaded;
        return;
      }
      if (!open.ok || !open.has_session) {
        ++result.errors;
        return;
      }
      for (std::size_t off = 0; off < trace.size(); off += batch) {
        const std::size_t n = std::min(batch, trace.size() - off);
        const std::vector<std::string> slice(trace.begin() + off,
                                             trace.begin() + off + n);
        const auto sent = std::chrono::steady_clock::now();
        const net::Response step = net::parse_response(client.call(
            net::render_monitor_step_request(open.session, slice, off)));
        const double rtt = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - sent)
                               .count();
        // Closed-loop per-event latency: the batch RTT amortized over
        // its events (one response per batch is the protocol's shape).
        result.latencies_ms.push_back(rtt / static_cast<double>(n));
        if (!step.ok || step.verdict != "live") ++result.errors;
      }
      const net::Response closed = net::parse_response(client.call(
          net::render_monitor_close_request(open.session, trace.size())));
      if (!closed.ok || closed.events != trace.size()) ++result.errors;
    } catch (const std::exception&) {
      ++result.errors;
    }
  });

  ThreadResult total = sum(results);
  // Overloaded sessions streamed nothing.
  const std::uint64_t total_events =
      trace.size() * (sessions - total.overloaded);
  total.errors += run_doom_assertions(host, port);

  std::string line;
  JsonWriter w(line);
  w.begin_object().key("monitor_loadgen").begin_object();
  w.field("sessions", sessions).field("events_per_session", trace.size());
  w.field("batch", batch).field("total_events", total_events);
  w.field("batches", total.latencies_ms.size()).field("errors", total.errors);
  w.field("overloaded", total.overloaded).field("wall_ms", wall_ms);
  w.field("events_per_s", wall_ms > 0 ? total_events / (wall_ms / 1000) : 0.0);
  finish_summary(w, total.latencies_ms);
  std::puts(line.c_str());
  return total.errors;
}

/// One closed-loop query-mode measurement: `connections` threads, each
/// driving `requests` back-to-back requests over the mixed workload.
/// Prints the {"loadgen":{...}} line and returns the error count.
std::uint64_t run_query_leg(const std::string& host, int port,
                            std::size_t connections, std::size_t requests,
                            const std::vector<WorkItem>& workload) {
  std::vector<ThreadResult> results(connections);
  const double wall_ms = run_threads(connections, [&](std::size_t t) {
    ThreadResult& result = results[t];
    result.latencies_ms.reserve(requests);
    net::Client client;
    try {
      client.connect(host, static_cast<std::uint16_t>(port));
    } catch (const std::exception&) {
      result.errors += requests;
      return;
    }
    for (std::size_t i = 0; i < requests; ++i) {
      // Stagger the walk so concurrent connections mix the workload.
      const WorkItem& item = workload[(i + t * 7) % workload.size()];
      const std::uint64_t id = t * requests + i;
      const auto sent = std::chrono::steady_clock::now();
      try {
        const std::string line = client.call(
            net::render_query_request(item.query, id, item.label));
        const net::Response response = net::parse_response(line);
        result.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - sent)
                .count());
        if (response.id != id) {
          ++result.errors;
        } else if (response.overloaded) {
          ++result.overloaded;
        } else if (response.resource_exhausted) {
          ++result.exhausted;
        } else if (!response.ok) {
          ++result.errors;
        }
      } catch (const std::exception&) {
        result.errors += requests - i;
        return;
      }
    }
  });

  const ThreadResult total = sum(results);
  const double answered = static_cast<double>(total.latencies_ms.size());
  std::string line;
  JsonWriter w(line);
  w.begin_object().key("loadgen").begin_object();
  w.field("connections", connections);
  w.field("requests_per_connection", requests);
  w.field("total", connections * requests).field("errors", total.errors);
  w.field("overloaded", total.overloaded).field("exhausted", total.exhausted);
  w.field("wall_ms", wall_ms);
  w.field("throughput_rps", wall_ms > 0 ? answered / (wall_ms / 1000) : 0.0);
  finish_summary(w, total.latencies_ms);
  std::puts(line.c_str());
  return total.errors;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  std::size_t connections = 4;
  std::size_t requests = 64;
  bool certify = false;
  bool want_stats = false;
  bool monitor_mode = false;
  bool petri_mode = false;
  std::size_t sessions = 64;
  std::size_t events = 512;
  std::size_t batch = 32;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--connections" && i + 1 < argc) {
      connections = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--requests" && i + 1 < argc) {
      requests = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--monitor") {
      monitor_mode = true;
    } else if (arg == "--petri") {
      petri_mode = true;
    } else if (arg == "--sessions" && i + 1 < argc) {
      sessions = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--events" && i + 1 < argc) {
      events = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--batch" && i + 1 < argc) {
      batch = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--certify") {
      certify = true;
    } else if (arg == "--stats") {
      want_stats = true;
    } else {
      return usage();
    }
  }
  if (port <= 0 || port > 65535 || connections == 0 || requests == 0) {
    return usage();
  }
  if (monitor_mode && (sessions == 0 || events == 0 || batch == 0)) {
    return usage();
  }

  // Fail fast (exit 2) when the server is not there at all.
  try {
    net::Client probe;
    probe.connect(host, static_cast<std::uint16_t>(port));
    (void)probe.call("{\"op\":\"ping\"}");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const std::uint64_t errors =
      monitor_mode
          ? run_monitor_mode(host, port, sessions, events, batch)
          : run_query_leg(host, port, connections, requests,
                          petri_mode ? build_petri_workload(certify)
                                     : build_workload(certify));

  if (want_stats) {
    try {
      net::Client client;
      client.connect(host, static_cast<std::uint16_t>(port));
      std::puts(client.call("{\"op\":\"stats\"}").c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: stats request failed: %s\n", e.what());
      return 1;
    }
  }
  return errors == 0 ? 0 : 1;
}
