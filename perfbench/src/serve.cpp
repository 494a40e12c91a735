// serve_warm and serve_cold: closed-loop rlvd queries over two connections.

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "inputs.hpp"
#include "rlv/net/client.hpp"
#include "rlv/util/rng.hpp"

namespace perfbench {

namespace {

using rlv::net::Client;

/// Two connections: rlv's callers each wait for their reply, and two keep
/// the load generator, rlvd's reactor and its two workers on four cores.
constexpr std::size_t kConnections = 2;


/// Upper bound on serve_cold verdicts checked per run.
constexpr std::uint64_t kColdChecks = 3000;

struct Tally {
  std::uint64_t oracle = 0, witness = 0, library = 0, unchecked = 0;

  void count(Checked how) {
    switch (how) {
      case Checked::kOracle: ++oracle; break;
      case Checked::kWitness: ++witness; break;
      case Checked::kLibrary: ++library; break;
      case Checked::kNone: ++unchecked; break;
    }
  }
  [[nodiscard]] std::string json() const {
    return JsonObject()
        .number("oracle", static_cast<double>(oracle))
        .number("witness", static_cast<double>(witness))
        .number("library", static_cast<double>(library))
        .number("unchecked", static_cast<double>(unchecked))
        .str();
  }
};

std::string cache_json(const DaemonStats& s) {
  return JsonObject()
      .number("verdicts_hit_ratio", s.verdicts.hit_ratio())
      .number("systems_hit_ratio", s.systems.hit_ratio())
      .number("prefixes_hit_ratio", s.prefixes.hit_ratio())
      .number("translations_hit_ratio", s.translations.hit_ratio())
      .number("evictions", s.verdicts.evictions + s.systems.evictions +
                               s.prefixes.evictions + s.translations.evictions)
      .number("overload_rejects", s.overload_rejects)
      .str();
}

/// One closed-loop request: render, round trip, parse.
void ask(Client& client, const ServeItem& item, std::uint64_t id,
         std::string& raw, rlv::net::Response& response) {
  raw = client.call(rlv::net::render_query_request(item.query, id, item.label));
  response = rlv::net::parse_response(raw);
}

bool answered(const rlv::net::Response& r, std::uint64_t id) {
  return r.id == id && r.ok && r.has_holds && !r.overloaded &&
         !r.resource_exhausted;
}

}  // namespace

void run_serve_warm(const Options& opts, Result& result) {
  const std::vector<ServeItem> items = warm_items(opts.seed);

  // Set-up: spawn, then the warm-up pass that asks every distinct query
  // once, so the measured window sees verdict-cache hits only. The last
  // daemon stays up for the measurement.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opts.rlvd);
    Client client;
    client.connect("127.0.0.1", daemon->port());
    std::string raw;
    rlv::net::Response response;
    for (std::size_t k = 0; k < items.size(); ++k) {
      ask(client, items[k], k, raw, response);
    }
    setups.push_back(us_between(t0, Clock::now()) / 1e6);
  }

  // A seeded order: shuffled rounds over the mix, each connection starting
  // half way along.
  rlv::Rng rng(opts.seed ^ 0x77a1ULL);
  std::vector<std::uint32_t> order;
  for (int round = 0; round < 64; ++round) {
    std::vector<std::uint32_t> perm(items.size());
    for (std::uint32_t k = 0; k < perm.size(); ++k) perm[k] = k;
    for (std::size_t k = perm.size(); k > 1; --k) {
      std::swap(perm[k - 1], perm[rng.next_below(k)]);
    }
    order.insert(order.end(), perm.begin(), perm.end());
  }

  struct PerItem {
    std::uint64_t replies = 0, holds = 0;
    std::string first_raw;
  };
  struct Worker {
    Slices slices;
    std::vector<PerItem> per_item;
    std::uint64_t attempted = 0, failed = 0;
  };
  std::array<Worker, kConnections> workers;
  const Window window = measured_window(opts.seconds);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      Worker& w = workers[t];
      w.per_item.resize(items.size());
      try {
        Client client;
        client.connect("127.0.0.1", daemon->port());
        std::string raw;
        rlv::net::Response response;
        for (std::size_t k = t * order.size() / kConnections;
             Clock::now() < window.close; ++k) {
          const std::uint32_t idx = order[k % order.size()];
          const std::uint64_t id = (static_cast<std::uint64_t>(t) << 40) | k;
          ++w.attempted;
          const auto t0 = Clock::now();
          ask(client, items[idx], id, raw, response);
          w.slices.record(window, t0, us_between(t0, Clock::now()));
          if (!answered(response, id)) {
            ++w.failed;
            continue;
          }
          PerItem& p = w.per_item[idx];
          ++p.replies;
          p.holds += response.holds ? 1 : 0;
          if (p.first_raw.empty()) p.first_raw = raw;
        }
      } catch (const std::exception&) {
        ++w.attempted;
        ++w.failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double rss = daemon->peak_rss_mb();
  const DaemonStats stats = fetch_stats(daemon->port());
  daemon.reset();

  // Correctness, outside the timed section: one check per distinct query,
  // and every reply to it must agree.
  Tally tally;
  for (std::size_t idx = 0; idx < items.size(); ++idx) {
    PerItem p;
    for (const Worker& w : workers) {
      const PerItem& q = w.per_item[idx];
      p.replies += q.replies;
      p.holds += q.holds;
      if (p.first_raw.empty()) p.first_raw = q.first_raw;
    }
    if (p.replies == 0) continue;
    const CheckResult check =
        check_verdict(items[idx].query, rlv::net::parse_json(p.first_raw));
    tally.count(check.how);
    const bool consistent = p.holds == 0 || p.holds == p.replies;
    if (!check.ok || !consistent) {
      result.failed += p.replies;
      result.error("serve_warm item " + std::to_string(idx) + ": " +
                   (check.ok ? "replies disagree" : check.detail));
    }
  }
  Slices slices;
  for (const Worker& w : workers) {
    result.attempted += w.attempted;
    result.failed += w.failed;
    slices.merge(w.slices);
  }
  report_end_to_end(result, median_of(setups), window, slices, rss);
  result.add_record("checked", tally.json());
  result.add_record("daemon", cache_json(stats));
}

void run_serve_cold(const Options& opts, Result& result) {
  // Set-up is spawn to first answer. The last daemon stays up, so the
  // stream of distinct queries starts on empty caches.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opts.rlvd);
    Client client;
    client.connect("127.0.0.1", daemon->port());
    (void)client.call("{\"op\":\"ping\",\"id\":0}");
    setups.push_back(us_between(t0, Clock::now()) / 1e6);
  }

  struct Reply {
    std::uint64_t index = 0;
    bool answered = false;
    std::string raw;
  };
  struct Worker {
    Slices slices;
    std::vector<Reply> replies;
  };
  std::array<Worker, kConnections> workers;
  std::atomic<std::uint64_t> next{0};
  const Window window = measured_window(opts.seconds);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      Worker& w = workers[t];
      try {
        Client client;
        client.connect("127.0.0.1", daemon->port());
        while (Clock::now() < window.close) {
          const std::uint64_t i = next.fetch_add(1);
          const ServeItem item = cold_query(opts.seed, i);
          Reply r;
          r.index = i;
          rlv::net::Response response;
          const auto t0 = Clock::now();
          ask(client, item, i, r.raw, response);
          w.slices.record(window, t0, us_between(t0, Clock::now()));
          r.answered = answered(response, i);
          w.replies.push_back(std::move(r));
        }
      } catch (const std::exception&) {
        w.replies.push_back(Reply{});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double rss = daemon->peak_rss_mb();
  const DaemonStats stats = fetch_stats(daemon->port());
  daemon.reset();

  // Every reply must be an answer; the verdicts of an evenly spaced subset
  // of at most kColdChecks queries are then checked (checking one costs
  // about twice what answering it does, so checking all would dominate the
  // run).
  const std::uint64_t issued = next.load();
  const std::uint64_t stride = (issued + kColdChecks - 1) / kColdChecks;
  Tally tally;
  Slices slices;
  for (const Worker& w : workers) {
    slices.merge(w.slices);
    for (const Reply& r : w.replies) {
      ++result.attempted;
      if (!r.answered) {
        ++result.failed;
        result.error("serve_cold query " + std::to_string(r.index) + ": " +
                     (r.raw.empty() ? "connection failed" : r.raw));
        continue;
      }
      if (r.index % stride != 0) continue;
      const CheckResult check = check_verdict(
          cold_query(opts.seed, r.index).query, rlv::net::parse_json(r.raw));
      tally.count(check.how);
      if (!check.ok) {
        ++result.failed;
        result.error("serve_cold query " + std::to_string(r.index) + ": " +
                     check.detail);
      }
    }
  }
  report_end_to_end(result, median_of(setups), window, slices, rss);
  result.add_record("checked", tally.json());
  result.add_record("daemon", cache_json(stats));
  result.add_record("distinct_systems",
                    num(static_cast<double>(issued / kColdQueriesPerSystem)));
}

}  // namespace perfbench
