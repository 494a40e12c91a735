#pragma once

// The concurrent verification query engine: executes batches of
// (system, formula, check-kind) queries on a fixed-size thread pool while
// sharing every reusable intermediate across queries through hash-consed
// caches (see cache.hpp for the concurrency guarantees and query.hpp for
// the protocol types):
//
//   systems       raw text        → parsed Nfa (+ structural fingerprint)
//   behaviors     system          → lim(L) Büchi automaton (Definition 6.2)
//   prefixes      system×Σ        → trimmed pre(L_ω) NFA (Lemma 4.3's LHS)
//   translations  formula×sign    → GPVW tableau (alphabet-free; every
//                                   query instantiates it on its own Σ)
//   properties    aut text×Σ      → parsed + remapped property Büchi
//   verdicts      system×P×kind×certify → final Verdict
//
// Resource governance: with timeout_ms / max_states set, every query runs
// under its own rlv::Budget; a tripped limit yields a verdict with
// resource_exhausted set (and the tripping stage named) instead of a crash
// or a wrong boolean. Exhausted verdicts are never cached. Per-stage
// profiles are collected for every query (budgeted or not) and aggregated
// into EngineStats::stages.
//
// Every check is a pure function of its query, so Engine::run returns
// verdicts bit-identical to sequential execution regardless of the worker
// count or the interleaving — the property test_engine.cpp pins down.
//
// Real verification workloads are many properties against few systems;
// the caches turn that shape into one parse, one limit construction, one
// pre(L_ω) trim per system, and one translation per formula polarity.

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "rlv/engine/query.hpp"
#include "rlv/ltl/ast.hpp"

namespace rlv {

struct EngineOptions {
  /// Worker threads; 0 or 1 executes queries sequentially on the caller.
  std::size_t jobs = 1;
  /// Capacity (entries) of each automaton cache; verdict cache is 8x this.
  std::size_t cache_capacity = 256;
  /// Per-query wall-clock deadline in milliseconds; 0 = unlimited. The
  /// clock starts when the query starts executing (not when the batch is
  /// submitted), so a slow sibling does not eat another query's budget.
  std::uint64_t timeout_ms = 0;
  /// Per-query cap on constructed states/configurations across all stages;
  /// 0 = unlimited.
  std::uint64_t max_states = 0;
  /// Re-check every negative verdict's witness with the independent
  /// certificate checker (rlv/cert/certificate.hpp) BEFORE the verdict
  /// enters the cache. A rejected witness is reported through
  /// Verdict::error and never cached; EngineStats counts the validations
  /// (certificates_checked / certificates_failed). Fairness counterexamples
  /// get a partial check (system membership + property violation — the
  /// fairness of the run itself is not re-established). Costs one explicit
  /// product per certified rs/rl verdict; see docs/usage.md §11.
  bool certify_verdicts = false;
  /// Global cap on concurrently open monitor sessions (the streaming
  /// subsystem's SessionTable); an open over the cap reports table_full —
  /// a deterministic overload, not an error. 0 = unlimited.
  std::size_t max_sessions = 65536;
  /// Per-session cap on total monitored events; a step batch that would
  /// exceed it is rejected whole with "event_cap". 0 = unlimited.
  std::uint64_t max_session_events = 0;
};

/// What a query's request bytes determine: the system text's fingerprint
/// and, for the formula flavor, the parsed formula. Engine::lookup fills it
/// in and Engine::compute reuses it, so a miss pays for neither twice.
struct QueryLookup {
  std::uint64_t system_text = 0;
  std::optional<Formula> formula;  // unset: not parsed (or unparsable)
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes the batch; results[i] answers queries[i]. Per-query failures
  /// (unparsable system, bad formula) are reported in Verdict::error, never
  /// thrown.
  [[nodiscard]] std::vector<Verdict> run(const std::vector<Query>& queries);

  /// Executes a single query through the same caches.
  [[nodiscard]] Verdict run_one(const Query& query);

  /// The resident half of run_one: answers the query on the calling
  /// thread if its verdict is already cached, in O(request bytes) — text
  /// fingerprints, the formula parse, non-computing cache lookups, never a
  /// system parse, a translation or a kernel. Otherwise returns nullopt,
  /// counts nothing, and leaves in `found` what compute() reuses.
  [[nodiscard]] std::optional<Verdict> lookup(const Query& query,
                                              QueryLookup& found);

  /// The computing half of run_one, on the calling thread: builds (and
  /// counts) whatever lookup() found missing. lookup() then compute() give
  /// the verdict, and every EngineStats counter, that run_one gives.
  [[nodiscard]] Verdict compute(const Query& query, const QueryLookup& found);

  /// Asynchronous single-query submission built from the two halves above:
  /// a resident verdict runs `done` inline before submit returns; any other
  /// query is computed on the engine pool and `done` runs on that worker
  /// (inline too when jobs <= 1). `done` must not throw. Every callback
  /// submitted before ~Engine runs to completion before the destructor
  /// returns (the pool drains its queue).
  void submit(Query query, std::function<void(Verdict)> done);

  // -------------------------------------------------------------------
  // Streaming doom monitoring (rlv/monitor): compile once, step O(1).

  /// Compiles (or fetches from the monitor-automaton cache) the monitor
  /// for the spec and opens a session at its initial state. Compilation
  /// runs under the engine-wide Budget defaults — this is the expensive
  /// call; a server counts it as a computation, like a query miss.
  [[nodiscard]] MonitorOpenResult open_monitor(const MonitorSpec& spec);

  /// Applies a batch of actions to a session — the O(1)-per-event hot
  /// path, cheap enough for a server to answer where it reads it. The
  /// batch is validated against the alphabet and the event cap before any
  /// of it is applied.
  [[nodiscard]] MonitorStepResult step_monitor(
      std::uint64_t session, const std::vector<std::string>& actions);

  [[nodiscard]] MonitorCloseResult close_monitor(std::uint64_t session);

  /// Closes every session idle for at least `max_idle_ms`; returns how
  /// many were reclaimed.
  std::size_t sweep_idle_sessions(std::uint64_t max_idle_ms);

  /// Cumulative cache counters and query totals since construction.
  [[nodiscard]] EngineStats stats() const;

  /// stats().total() without the rest of the snapshot: the seven caches'
  /// counters summed — what every result record embeds.
  [[nodiscard]] CacheCounters cache_totals() const;

  /// Pool worker threads (0 when jobs <= 1, i.e. inline execution). The
  /// pool starts them on the first run() or submit(), so an engine whose
  /// caller computes every query itself (a server) never spawns them.
  [[nodiscard]] std::size_t workers() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rlv
