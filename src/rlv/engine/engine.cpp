#include "rlv/engine/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "rlv/cert/certificate.hpp"
#include "rlv/core/check.hpp"
#include "rlv/engine/fingerprint.hpp"
#include "rlv/engine/thread_pool.hpp"
#include "rlv/io/format.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/monitor/session.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/complement.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/util/hash.hpp"

namespace rlv {

namespace {

struct ParsedSystem {
  Nfa nfa;
  std::uint64_t fingerprint;  // structural, not text: see fingerprint.hpp
};

/// A property automaton parsed and remapped onto one system alphabet.
struct ParsedProperty {
  Buchi automaton;
  std::uint64_t fingerprint;  // structural, of the remapped automaton
};

/// A tableau is alphabet-free, so one entry serves every system: each query
/// instantiates it on its own alphabet.
struct TranslationKey {
  const void* formula;  // interned node — canonical per process
  bool negated;

  friend bool operator==(const TranslationKey&, const TranslationKey&) =
      default;
};

struct TranslationKeyHash {
  std::size_t operator()(const TranslationKey& k) const {
    return hash_combine(std::hash<const void*>{}(k.formula), k.negated ? 1 : 0);
  }
};

/// pre(L_ω) is keyed by structure *and* alphabet identity: the behaviors
/// and prefixes caches evict independently, so a structure-only key could
/// pair a fresh behaviors automaton with a cached prefix NFA built over
/// another (structurally equal) text's alphabet object.
struct PrefixKey {
  std::uint64_t system;   // structural fingerprint
  const void* alphabet;   // alphabet identity of the behaviors automaton

  friend bool operator==(const PrefixKey&, const PrefixKey&) = default;
};

struct PrefixKeyHash {
  std::size_t operator()(const PrefixKey& k) const {
    return hash_combine(std::hash<std::uint64_t>{}(k.system),
                        std::hash<const void*>{}(k.alphabet));
  }
};

struct PropertyKey {
  std::uint64_t text;     // fingerprint of the raw automaton text
  const void* alphabet;   // target alphabet identity

  friend bool operator==(const PropertyKey&, const PropertyKey&) = default;
};

struct PropertyKeyHash {
  std::size_t operator()(const PropertyKey& k) const {
    return hash_combine(std::hash<std::uint64_t>{}(k.text),
                        std::hash<const void*>{}(k.alphabet));
  }
};

/// Monitor automata are keyed like verdicts, minus the kind (there is only
/// one compilation).
struct MonitorKey {
  std::uint64_t system;    // structural fingerprint
  const void* formula;     // interned node (null for automaton flavor)
  std::uint64_t property;  // remapped property fingerprint (0 for formula)
  bool certify;

  friend bool operator==(const MonitorKey&, const MonitorKey&) = default;
};

struct MonitorKeyHash {
  std::size_t operator()(const MonitorKey& k) const {
    std::size_t h = std::hash<std::uint64_t>{}(k.system);
    h = hash_combine(h, std::hash<const void*>{}(k.formula));
    h = hash_combine(h, std::hash<std::uint64_t>{}(k.property));
    return hash_combine(h, k.certify ? 1 : 0);
  }
};

/// The verdict key carries everything that determines a check's outcome,
/// plus the effective certify bit: a certify request must not be served a
/// verdict nobody checked (a plain request may be served a certified one).
struct VerdictKey {
  std::uint64_t system;    // structural fingerprint
  const void* formula;     // interned node (null for automaton flavor)
  std::uint64_t property;  // remapped property fingerprint (0 for formula)
  CheckKind kind;
  bool certify;

  friend bool operator==(const VerdictKey&, const VerdictKey&) = default;
};

struct VerdictKeyHash {
  std::size_t operator()(const VerdictKey& k) const {
    std::size_t h = std::hash<std::uint64_t>{}(k.system);
    h = hash_combine(h, std::hash<const void*>{}(k.formula));
    h = hash_combine(h, std::hash<std::uint64_t>{}(k.property));
    h = hash_combine(h, static_cast<std::size_t>(k.kind));
    return hash_combine(h, k.certify ? 1 : 0);
  }
};

/// One lock shard per job (MemoCache rounds up to a power of two): one job
/// keeps one shard, the exact whole-cache LRU the eviction tests rely on.
std::size_t cache_shards(const EngineOptions& opts) {
  return std::max<std::size_t>(opts.jobs, 1);
}

/// Cumulative per-stage totals as relaxed atomics: workers merge each
/// query's profile with plain fetch_adds (CAS-max for the peaks), and a
/// `stats` snapshot reads them without taking any lock — so observability
/// polling never stalls a worker mid-query the way the old profile mutex
/// could.
struct AtomicStageTotals {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> states_built{0};
  std::atomic<std::uint64_t> peak_antichain{0};
  std::atomic<std::uint64_t> peak_memory_bytes{0};
  std::atomic<std::uint64_t> nanos{0};

  static void note_peak(std::atomic<std::uint64_t>& peak,
                        std::uint64_t value) {
    std::uint64_t seen = peak.load(std::memory_order_relaxed);
    while (value > seen &&
           !peak.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  void merge(const StageMetrics& m) {
    calls.fetch_add(m.calls, std::memory_order_relaxed);
    states_built.fetch_add(m.states_built.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    note_peak(peak_antichain,
              m.peak_antichain.load(std::memory_order_relaxed));
    note_peak(peak_memory_bytes,
              m.peak_memory_bytes.load(std::memory_order_relaxed));
    nanos.fetch_add(m.nanos, std::memory_order_relaxed);
  }

  void snapshot_into(StageMetrics& out) const {
    out.calls = calls.load(std::memory_order_relaxed);
    out.states_built.store(states_built.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    out.peak_antichain.store(peak_antichain.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    out.peak_memory_bytes.store(
        peak_memory_bytes.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    out.nanos = nanos.load(std::memory_order_relaxed);
  }
};

}  // namespace

struct Engine::Impl {
  explicit Impl(const EngineOptions& opts)
      : options(opts),
        systems(opts.cache_capacity, cache_shards(opts)),
        behaviors(opts.cache_capacity, cache_shards(opts)),
        prefixes(opts.cache_capacity, cache_shards(opts)),
        translations(opts.cache_capacity, cache_shards(opts)),
        properties(opts.cache_capacity, cache_shards(opts)),
        verdicts(opts.cache_capacity * 8, cache_shards(opts)),
        monitors(opts.cache_capacity, cache_shards(opts)),
        sessions(opts.max_sessions),
        pool(opts.jobs <= 1 ? 0 : opts.jobs) {}

  EngineOptions options;
  MemoCache<std::uint64_t, ParsedSystem> systems;
  MemoCache<std::uint64_t, Buchi> behaviors;
  MemoCache<PrefixKey, Nfa, PrefixKeyHash> prefixes;
  MemoCache<TranslationKey, Tableau, TranslationKeyHash> translations;
  MemoCache<PropertyKey, ParsedProperty, PropertyKeyHash> properties;
  MemoCache<VerdictKey, Verdict, VerdictKeyHash> verdicts;
  MemoCache<MonitorKey, monitor::MonitorAutomaton, MonitorKeyHash> monitors;
  /// The streaming-session state. One mutex guards the table: the hot path
  /// holds it for a few table lookups per event, negligible next to the
  /// socket round-trip that precedes every touch.
  mutable std::mutex session_mutex;
  monitor::SessionTable sessions;
  const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> monitor_steps{0};
  std::atomic<std::uint64_t> monitor_dooms{0};
  ThreadPool pool;
  std::atomic<std::uint64_t> queries_run{0};
  std::atomic<std::uint64_t> certificates_checked{0};
  std::atomic<std::uint64_t> certificates_failed{0};
  std::array<AtomicStageTotals, kNumStages> stage_totals;

  void merge_profile(const QueryProfile& profile) {
    for (std::size_t i = 0; i < kNumStages; ++i) {
      stage_totals[i].merge(profile.stages[i]);
    }
  }

  /// The cached tableau of f (or ¬f), instantiated on λ's alphabet. The
  /// tableau is built under the budget of the query that misses; a query
  /// that joined that build and saw it run out retries under its own.
  std::shared_ptr<const Buchi> translation(Formula f, const Labeling& lambda,
                                           bool negated, Budget* budget) {
    StageScope scope(budget, Stage::kTranslate);
    const auto tableau = translations.get_or_compute_own<ResourceExhausted>(
        {f.raw(), negated},
        [&] { return build_tableau(negated ? f_not(f) : f, budget); });
    return std::make_shared<const Buchi>(
        degeneralize(instantiate(*tableau, lambda, budget), budget));
  }

  std::shared_ptr<const ParsedProperty> property(const std::string& text,
                                                 const AlphabetRef& sigma,
                                                 Budget* budget) {
    const PropertyKey key{fingerprint_text(text), sigma.get()};
    return properties.get_or_compute_own<ResourceExhausted>(key, [&] {
      StageScope scope(budget, Stage::kParse);
      Buchi raw = parse_buchi(text, budget);
      Buchi remapped =
          Buchi::from_structure(remap_alphabet(raw.structure(), sigma));
      const std::uint64_t fp = fingerprint_buchi(remapped);
      return ParsedProperty{std::move(remapped), fp};
    });
  }

  /// `prop` on the alphabet object `sigma`, re-resolved when it was remapped
  /// onto another one: the structure-keyed behaviors cache may hold an
  /// entry parsed from a different, structurally equal system text.
  std::shared_ptr<const ParsedProperty> property_on(
      const std::shared_ptr<const ParsedProperty>& prop,
      const std::string& text, const AlphabetRef& sigma, Budget* budget) {
    if (!prop || prop->automaton.alphabet() == sigma) return prop;
    return property(text, sigma, budget);
  }

  /// Calls `use(operands, prop, lambda)` with the check operands
  /// (rlv/core/check.hpp) of a query on `sys`, all built from the caches:
  /// the behaviors automaton, pre(L_ω), and P and ¬P of whichever flavor
  /// the query used — translations for a formula, the parsed automaton and
  /// its rank-based complement (the exponential path the Budget exists for)
  /// otherwise. Every operand lives on the alphabet object of the *cached*
  /// behaviors automaton, so alphabet identity (which the products and
  /// check_inclusion require) holds even when two different texts parse to
  /// one structure; `prop` is the automaton re-resolved onto it.
  template <class Use>
  auto with_operands(const ParsedSystem& sys, const std::optional<Formula>& f,
                     const std::shared_ptr<const ParsedProperty>& sys_prop,
                     const std::string& property_text, Budget* budget,
                     Use&& use) {
    const auto behaviors_aut = behaviors.get_or_compute(sys.fingerprint, [&] {
      StageScope scope(budget, Stage::kPreTrim);
      return limit_of_prefix_closed(sys.nfa);
    });
    const AlphabetRef& sigma = behaviors_aut->alphabet();
    const Labeling lambda = Labeling::canonical(sigma);
    const auto prop = property_on(sys_prop, property_text, sigma, budget);
    CheckOperands operands(
        *behaviors_aut,
        [&] {
          return prefixes.get_or_compute({sys.fingerprint, sigma.get()}, [&] {
            StageScope scope(budget, Stage::kPreTrim);
            return prefix_nfa(*behaviors_aut);
          });
        },
        [&] {
          return prop ? std::shared_ptr<const Buchi>(prop, &prop->automaton)
                      : translation(*f, lambda, /*negated=*/false, budget);
        },
        [&] {
          // A complement is not memoized on its own: the verdict cache
          // absorbs repeats, so it is only rebuilt for an uncached verdict.
          return prop ? std::make_shared<const Buchi>(
                            complement_buchi(prop->automaton, budget))
                      : translation(*f, lambda, /*negated=*/true, budget);
        });
    return use(operands, prop.get(), lambda);
  }

  /// Runs check() for the query. With certification on (engine-wide or
  /// requested by this query), the negative verdict's witness is re-checked
  /// with the independent certificate checker before the verdict can enter
  /// the cache. A rejected witness throws — run_one reports it through
  /// Verdict::error and get_or_compute drops the cache entry, so a bad
  /// witness is never served to anyone.
  Verdict decide(const ParsedSystem& sys, const std::optional<Formula>& f,
                 const std::shared_ptr<const ParsedProperty>& sys_prop,
                 const Query& query, Budget* budget) {
    return with_operands(
        sys, f, sys_prop, query.property_automaton, budget,
        [&](CheckOperands& operands, const ParsedProperty* prop,
            const Labeling& lambda) {
          Verdict verdict;
          static_cast<CheckResult&>(verdict) =
              check(query.kind, operands, budget);
          verdict.alphabet = operands.behaviors().alphabet();
          if (certify(query) && !verdict.holds) {
            StageScope scope(budget, Stage::kOther);
            certificates_checked.fetch_add(1, std::memory_order_relaxed);
            const cert::Validation validation = cert::validate(
                query.kind, verdict, operands.behaviors(),
                prop ? cert::Property(prop->automaton)
                     : cert::Property(*f, lambda, operands.built_property()));
            if (!validation.valid) {
              certificates_failed.fetch_add(1, std::memory_order_relaxed);
              throw std::runtime_error("certificate validation failed: " +
                                       validation.reason);
            }
          }
          return verdict;
        });
  }

  [[nodiscard]] bool certify(const Query& query) const {
    return options.certify_verdicts || query.certify;
  }

  using Clock = std::chrono::steady_clock;

  VerdictKey verdict_key(const ParsedSystem& sys,
                         const std::optional<Formula>& f,
                         const ParsedProperty* prop, const Query& query) const {
    return {sys.fingerprint, f ? f->raw() : nullptr,
            prop ? prop->fingerprint : 0, query.kind, certify(query)};
  }

  /// The epilogue every answered query shares: profile, totals, wall time.
  void finish(Verdict& verdict, const Budget& budget, Clock::time_point start) {
    verdict.profile = budget.profile();
    merge_profile(verdict.profile);
    verdict.millis =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
  }

  /// The hit half of run_one: answers the query if its verdict is already
  /// resident, doing only O(request bytes) work — text fingerprints, the
  /// formula parse, and non-computing cache lookups. It never parses a
  /// system or automaton text, translates, or runs a kernel. A full hit
  /// counts one hit in every cache it touched, exactly as the computing
  /// path would; anything not fully resident counts nothing and returns
  /// nullopt (an unparsable formula too: the computing path reports it).
  std::optional<Verdict> answer_resident(const Query& query,
                                         QueryLookup& lookup,
                                         Clock::time_point start) {
    Budget budget;
    std::shared_ptr<const ParsedSystem> sys;
    {
      StageScope scope(&budget, Stage::kParse);
      lookup.system_text = fingerprint_text(query.system);
      sys = systems.find(lookup.system_text);
      if (!sys) return std::nullopt;
      if (query.property_automaton.empty()) {
        try {
          lookup.formula = parse_ltl(query.formula);
        } catch (const std::exception&) {
          return std::nullopt;
        }
      }
    }
    std::shared_ptr<const ParsedProperty> prop;
    PropertyKey property_key{};
    if (!query.property_automaton.empty()) {
      property_key = {fingerprint_text(query.property_automaton),
                      sys->nfa.alphabet().get()};
      prop = properties.find(property_key);
      if (!prop) return std::nullopt;
    }
    VerdictKey key = verdict_key(*sys, lookup.formula, prop.get(), query);
    auto resident = verdicts.find(key);
    if (!resident && !key.certify) {
      key.certify = true;
      resident = verdicts.find(key);
    }
    if (!resident) return std::nullopt;

    systems.count_hit(lookup.system_text);
    if (prop) properties.count_hit(property_key);
    verdicts.count_hit(key);
    queries_run.fetch_add(1, std::memory_order_relaxed);
    Verdict verdict = *resident;
    finish(verdict, budget, start);
    return verdict;
  }

  /// The computing half of run_one: every cache through get_or_compute, so
  /// whatever is missing gets built (and counted) here.
  Verdict compute(const Query& query, const QueryLookup& lookup,
                  Clock::time_point start) {
    queries_run.fetch_add(1, std::memory_order_relaxed);

    // One budget per query, armed from the engine options unless the query
    // carries its own override (the serving path: client limits clamped to
    // the server's caps). Unarmed budgets never trip and only collect the
    // per-stage profile, so budget-disabled verdicts are identical to
    // pre-budget execution.
    Budget budget;
    const std::uint64_t timeout_ms =
        query.timeout_ms > 0 ? query.timeout_ms : options.timeout_ms;
    if (timeout_ms > 0) {
      budget.set_deadline_in(std::chrono::milliseconds(timeout_ms));
    }
    const std::uint64_t max_states =
        query.max_states > 0 ? query.max_states : options.max_states;
    if (max_states > 0) budget.set_max_states(max_states);

    Verdict verdict;
    try {
      std::shared_ptr<const ParsedSystem> sys;
      std::optional<Formula> f;
      {
        StageScope scope(&budget, Stage::kParse);
        sys = systems.get_or_compute_own<ResourceExhausted>(
            lookup.system_text, [&] {
              Nfa nfa = parse_system(query.system, &budget);
              const std::uint64_t fp = fingerprint_nfa(nfa);
              return ParsedSystem{std::move(nfa), fp};
            });
        if (query.property_automaton.empty()) {
          f = lookup.formula ? lookup.formula : parse_ltl(query.formula);
        }
      }
      std::shared_ptr<const ParsedProperty> prop;
      if (!query.property_automaton.empty()) {
        prop = property(query.property_automaton, sys->nfa.alphabet(), &budget);
      }
      // A ResourceExhausted escaping decide() propagates out of
      // get_or_compute, which drops the entry — exhausted outcomes are
      // never cached, so a retry with a larger budget recomputes.
      verdict = *verdicts.get_or_compute(
          verdict_key(*sys, f, prop.get(), query),
          [&] { return decide(*sys, f, prop, query, &budget); });
    } catch (const ResourceExhausted& e) {
      verdict = Verdict{};
      verdict.resource_exhausted = true;
      verdict.exhausted_stage = std::string(stage_name(e.stage()));
    } catch (const std::exception& e) {
      verdict = Verdict{};
      verdict.error = e.what();
    }
    finish(verdict, budget, start);
    return verdict;
  }

  Verdict run_one(const Query& query) {
    const auto start = Clock::now();
    QueryLookup lookup;
    if (auto verdict = answer_resident(query, lookup, start)) {
      return std::move(*verdict);
    }
    return compute(query, lookup, start);
  }

  [[nodiscard]] std::uint64_t now_ms() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
  }

  MonitorOpenResult open_monitor(const MonitorSpec& spec) {
    const auto start = std::chrono::steady_clock::now();
    MonitorOpenResult result;

    Budget budget;
    if (options.timeout_ms > 0) {
      budget.set_deadline_in(std::chrono::milliseconds(options.timeout_ms));
    }
    if (options.max_states > 0) budget.set_max_states(options.max_states);

    try {
      if (!spec.formula.empty() && !spec.property_automaton.empty()) {
        throw std::runtime_error(
            "'formula' and 'property_automaton' are mutually exclusive");
      }
      if (spec.formula.empty() && spec.property_automaton.empty()) {
        throw std::runtime_error("missing 'formula' or 'property_automaton'");
      }
      std::shared_ptr<const ParsedSystem> sys;
      std::optional<Formula> f;
      {
        StageScope scope(&budget, Stage::kParse);
        sys = systems.get_or_compute_own<ResourceExhausted>(
            fingerprint_text(spec.system), [&] {
              Nfa nfa = parse_system(spec.system, &budget);
              const std::uint64_t fp = fingerprint_nfa(nfa);
              return ParsedSystem{std::move(nfa), fp};
            });
        if (spec.property_automaton.empty()) f = parse_ltl(spec.formula);
      }
      std::shared_ptr<const ParsedProperty> prop;
      if (!spec.property_automaton.empty()) {
        prop = property(spec.property_automaton, sys->nfa.alphabet(), &budget);
      }
      const MonitorKey key{sys->fingerprint, f ? f->raw() : nullptr,
                           prop ? prop->fingerprint : 0, spec.certify};
      // Compile once per distinct spec; an exception (including a tripped
      // budget or a refuted witness) drops the cache entry, so a retry
      // recompiles instead of serving a half-built automaton.
      const auto automaton = monitors.get_or_compute(key, [&] {
        return with_operands(
            *sys, f, prop, spec.property_automaton, &budget,
            [&](CheckOperands& operands, const ParsedProperty*,
                const Labeling&) {
              return monitor::MonitorAutomaton(operands.behaviors(),
                                               operands.property(),
                                               spec.certify, &budget);
            });
      });
      std::lock_guard lock(session_mutex);
      const std::uint64_t id = sessions.open(automaton, now_ms());
      if (id == 0) {
        result.table_full = true;
      } else {
        result.session = id;
        result.verdict = automaton->verdict(automaton->initial());
        result.certified = automaton->certified();
      }
    } catch (const ResourceExhausted& e) {
      result.resource_exhausted = true;
      result.exhausted_stage = std::string(stage_name(e.stage()));
    } catch (const std::exception& e) {
      result.error = e.what();
    }
    result.millis = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return result;
  }

  MonitorStepResult step_monitor(std::uint64_t session,
                                 const std::vector<std::string_view>& actions) {
    MonitorStepResult result;
    std::lock_guard lock(session_mutex);
    monitor::Session* s = sessions.find(session, now_ms());
    if (!s) {
      result.error = "unknown_session";
      return result;
    }
    const monitor::MonitorAutomaton& automaton = *s->automaton;
    const Alphabet& sigma = *automaton.alphabet();

    // Validate the whole batch before applying any of it: a bad action or
    // a tripped event cap must not half-step the stream.
    Word symbols;
    symbols.reserve(actions.size());
    for (const std::string_view name : actions) {
      const std::optional<Symbol> symbol = sigma.find(name);
      if (!symbol) {
        result.error = "unknown_action";
        result.error_detail =
            "'" + std::string(name) + "' is not in the alphabet";
        return result;
      }
      symbols.push_back(*symbol);
    }
    if (options.max_session_events > 0 &&
        s->events + symbols.size() > options.max_session_events) {
      result.error = "event_cap";
      result.error_detail =
          "session event cap is " + std::to_string(options.max_session_events);
      return result;
    }

    std::uint32_t state = s->state;
    monitor::Verdict verdict = automaton.verdict(state);
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      state = automaton.step(state, symbols[i]);
      const monitor::Verdict after = automaton.verdict(state);
      if (verdict == monitor::Verdict::kSatisfiable &&
          after != monitor::Verdict::kSatisfiable) {
        result.transition_index = i;
        if (after == monitor::Verdict::kDoomed) {
          result.transition_doomed = true;
          const Word w = automaton.witness(state);
          result.witness.reserve(w.size());
          for (const Symbol a : w) result.witness.push_back(sigma.name(a));
          result.witness_certified = automaton.certified();
          monitor_dooms.fetch_add(1, std::memory_order_relaxed);
        }
      }
      verdict = after;
    }
    s->state = state;
    s->events += symbols.size();
    monitor_steps.fetch_add(symbols.size(), std::memory_order_relaxed);
    result.verdict = verdict;
    result.events = s->events;
    return result;
  }

  MonitorCloseResult close_monitor(std::uint64_t session) {
    MonitorCloseResult result;
    std::lock_guard lock(session_mutex);
    monitor::Session* s = sessions.find(session, now_ms());
    if (!s) {
      result.error = "unknown_session";
      return result;
    }
    result.events = s->events;
    result.closed = sessions.close(session);
    return result;
  }
};

Engine::Engine(EngineOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

Engine::~Engine() = default;

std::vector<Verdict> Engine::run(const std::vector<Query>& queries) {
  std::vector<Verdict> results(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    impl_->pool.submit(
        [this, &queries, &results, i] { results[i] = impl_->run_one(queries[i]); });
  }
  impl_->pool.wait_idle();
  return results;
}

Verdict Engine::run_one(const Query& query) { return impl_->run_one(query); }

std::size_t Engine::workers() const { return impl_->pool.num_workers(); }

std::optional<Verdict> Engine::lookup(const Query& query, QueryLookup& found) {
  return impl_->answer_resident(query, found, Impl::Clock::now());
}

Verdict Engine::compute(const Query& query, const QueryLookup& found) {
  return impl_->compute(query, found, Impl::Clock::now());
}

void Engine::submit(Query query, std::function<void(Verdict)> done) {
  QueryLookup found;
  if (auto verdict = lookup(query, found)) {
    done(std::move(*verdict));
    return;
  }
  impl_->pool.submit([impl = impl_.get(), query = std::move(query),
                      found = std::move(found), done = std::move(done)] {
    done(impl->compute(query, found, Impl::Clock::now()));
  });
}

MonitorOpenResult Engine::open_monitor(const MonitorSpec& spec) {
  return impl_->open_monitor(spec);
}

MonitorStepResult Engine::step_monitor(
    std::uint64_t session, const std::vector<std::string_view>& actions) {
  return impl_->step_monitor(session, actions);
}

MonitorCloseResult Engine::close_monitor(std::uint64_t session) {
  return impl_->close_monitor(session);
}

std::size_t Engine::sweep_idle_sessions(std::uint64_t max_idle_ms) {
  std::lock_guard lock(impl_->session_mutex);
  return impl_->sessions.sweep_idle(impl_->now_ms(), max_idle_ms);
}

CacheCounters Engine::cache_totals() const {
  CacheCounters total = impl_->systems.counters();
  total += impl_->behaviors.counters();
  total += impl_->prefixes.counters();
  total += impl_->translations.counters();
  total += impl_->properties.counters();
  total += impl_->verdicts.counters();
  total += impl_->monitors.counters();
  return total;
}

EngineStats Engine::stats() const {
  EngineStats stats;
  stats.systems = impl_->systems.counters();
  stats.behaviors = impl_->behaviors.counters();
  stats.prefixes = impl_->prefixes.counters();
  stats.translations = impl_->translations.counters();
  stats.properties = impl_->properties.counters();
  stats.verdicts = impl_->verdicts.counters();
  stats.monitors = impl_->monitors.counters();
  {
    // Counter snapshot is lock-free (relaxed atomics inside SessionTable);
    // stats polling must not contend with the monitor stepping hot path.
    const monitor::SessionCounters c = impl_->sessions.counters();
    stats.monitor.sessions_open = c.open;
    stats.monitor.sessions_peak = c.peak;
    stats.monitor.sessions_opened = c.opened;
    stats.monitor.idle_reclaimed = c.idle_reclaimed;
  }
  stats.monitor.steps = impl_->monitor_steps.load(std::memory_order_relaxed);
  stats.monitor.dooms = impl_->monitor_dooms.load(std::memory_order_relaxed);
  stats.queries_run = impl_->queries_run.load(std::memory_order_relaxed);
  stats.certificates_checked =
      impl_->certificates_checked.load(std::memory_order_relaxed);
  stats.certificates_failed =
      impl_->certificates_failed.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumStages; ++i) {
    impl_->stage_totals[i].snapshot_into(stats.stages.stages[i]);
  }
  return stats;
}

}  // namespace rlv
