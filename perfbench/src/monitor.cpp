// monitor_stream: sessions streaming seeded traces in batches over rlvd.

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <thread>

#include "bench.hpp"
#include "inputs.hpp"
#include "rlv/net/client.hpp"

namespace perfbench {

namespace {

using rlv::net::Client;

constexpr std::size_t kConnections = 2;
constexpr std::size_t kSessionsPerConnection = 4;
constexpr std::size_t kTraces = 16;

std::vector<std::string> witness_of(const std::string& raw) {
  std::vector<std::string> w;
  const rlv::net::JsonValue doc = rlv::net::parse_json(raw);
  if (const rlv::net::JsonValue* arr = doc.find("witness")) {
    for (const rlv::net::JsonValue& v : arr->array) w.push_back(v.as_string());
  }
  return w;
}

}  // namespace

std::uint64_t open_session(Client& client, const StreamSpec& spec,
                           std::uint64_t id) {
  const rlv::net::Response r = rlv::net::parse_response(
      client.call(rlv::net::render_monitor_open_request(spec.spec, id, spec.label)));
  if (!r.ok || !r.has_session || r.verdict != "live") {
    throw std::runtime_error("monitor_open failed: " + r.raw);
  }
  return r.session;
}

std::string check_step(const rlv::net::Response& r, const StreamTrace& trace,
                       std::size_t offset, std::size_t n) {
  if (!r.ok) return "step failed: " + r.raw;
  if (r.events != offset + n) return "event count " + std::to_string(r.events);
  if (!trace.doom_index || *trace.doom_index >= offset + n) {
    return r.verdict == "live" ? "" : "expected live, got " + r.verdict;
  }
  if (*trace.doom_index < offset) {
    return r.verdict == "doomed" && !r.has_doomed_index ? ""
                                                        : "doom not absorbing";
  }
  if (r.verdict != "doomed" || !r.has_doomed_index ||
      r.doomed_index != *trace.doom_index - offset) {
    return "expected doom at " + std::to_string(*trace.doom_index) + ": " + r.raw;
  }
  return "";
}

void run_monitor_stream(const Options& opts, Result& result) {
  const std::vector<StreamSpec> specs = stream_specs();
  const std::vector<StreamTrace> traces =
      stream_traces(opts.seed, kTraces, kMonitorTraceLength);

  // Set-up: spawn, then compile every spec's monitor (its first open). The
  // last daemon stays up for the measurement.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opts.rlvd);
    Client client;
    client.connect("127.0.0.1", daemon->port());
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const std::uint64_t session = open_session(client, specs[s], s);
      (void)client.call(rlv::net::render_monitor_close_request(session, s));
    }
    setups.push_back(us_between(t0, Clock::now()) / 1e6);
  }

  struct Worker {
    Slices slices;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    std::set<std::vector<std::string>> witnesses;
  };
  std::array<Worker, kConnections> workers;
  const Window window = measured_window(opts.seconds);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      Worker& w = workers[t];
      struct Stream {
        std::size_t trace = 0, offset = 0;
        std::uint64_t session = 0;
      };
      std::uint64_t id = 0;
      try {
        Client client;
        client.connect("127.0.0.1", daemon->port());
        std::vector<Stream> streams(kSessionsPerConnection);
        for (std::size_t s = 0; s < streams.size(); ++s) {
          streams[s].trace = t * kSessionsPerConnection + s;
          streams[s].session =
              open_session(client, specs[traces[streams[s].trace].spec], ++id);
        }
        for (std::size_t k = 0; Clock::now() < window.close; ++k) {
          Stream& st = streams[k % streams.size()];
          const StreamTrace& trace = traces[st.trace];
          const std::size_t n =
              std::min(kMonitorBatch, trace.actions.size() - st.offset);
          const std::vector<std::string> batch(
              trace.actions.begin() + static_cast<std::ptrdiff_t>(st.offset),
              trace.actions.begin() + static_cast<std::ptrdiff_t>(st.offset + n));
          ++w.attempted;
          const auto t0 = Clock::now();
          const std::string raw = client.call(
              rlv::net::render_monitor_step_request(st.session, batch, ++id));
          const rlv::net::Response r = rlv::net::parse_response(raw);
          // ops_per_s counts events (actions), not batches.
          w.slices.record(window, t0, us_between(t0, Clock::now()),
                          static_cast<double>(n));
          const std::string problem = check_step(r, trace, st.offset, n);
          if (!problem.empty()) {
            ++w.failed;
            if (w.errors.size() < 8) w.errors.push_back(problem);
          } else if (r.has_doomed_index) {
            w.witnesses.insert(witness_of(raw));
          }
          st.offset += n;
          if (st.offset == trace.actions.size()) {
            const rlv::net::Response closed = rlv::net::parse_response(client.call(
                rlv::net::render_monitor_close_request(st.session, ++id)));
            if (!closed.ok || closed.events != trace.actions.size()) {
              ++w.failed;
              w.errors.push_back("close failed: " + closed.raw);
            }
            st.trace = (st.trace + kConnections * kSessionsPerConnection) % kTraces;
            st.offset = 0;
            st.session = open_session(client, specs[traces[st.trace].spec], ++id);
          }
        }
      } catch (const std::exception& e) {
        ++w.attempted;
        ++w.failed;
        w.errors.push_back(e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double rss = daemon->peak_rss_mb();
  const DaemonStats stats = fetch_stats(daemon->port());
  daemon.reset();

  Slices slices;
  std::set<std::vector<std::string>> witnesses;
  for (Worker& w : workers) {
    result.attempted += w.attempted;
    result.failed += w.failed;
    for (std::string& e : w.errors) result.error("monitor_stream: " + e);
    witnesses.insert(w.witnesses.begin(), w.witnesses.end());
    slices.merge(w.slices);
  }
  // Every doom the daemon reported must carry a valid doomed prefix.
  for (const std::vector<std::string>& witness : witnesses) {
    if (!doom_witness_valid(specs[kFigure3Spec], witness)) {
      ++result.failed;
      result.error("monitor_stream: invalid doom witness");
    }
  }
  if (witnesses.empty()) {
    ++result.failed;
    result.error("monitor_stream: no Figure 3 stream reached its doom");
  }
  report_end_to_end(result, median_of(setups), window, slices, rss);
  result.add_record("doom_witnesses_checked",
                    num(static_cast<double>(witnesses.size())));
  result.add_record("monitors_hit_ratio", num(stats.monitors.hit_ratio()));
}

}  // namespace perfbench
