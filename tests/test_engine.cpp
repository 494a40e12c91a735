// Tests for rlv::engine — the concurrent verification query engine:
// determinism (parallel batches bit-identical to sequential execution),
// cache hit/miss/eviction accounting, compute-once semantics under
// contention, error folding, the thread pool, and structural fingerprints.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <set>
#include <thread>

#include "rlv/core/relative.hpp"
#include "rlv/engine/cache.hpp"
#include "rlv/engine/engine.hpp"
#include "rlv/engine/fingerprint.hpp"
#include "rlv/engine/thread_pool.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/io/format.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/util/rng.hpp"

namespace rlv {
namespace {

// ---------------------------------------------------------------------------
// Workload construction.

std::vector<std::string> sample_system_texts() {
  return {serialize_system(figure2_system()),
          serialize_system(figure3_system()),
          serialize_system(token_ring(4)),
          serialize_system(section5_ab_system())};
}

std::vector<std::string> sample_formulas(const Nfa& probe) {
  // Formulas over action names shared by all sample systems would be ideal;
  // unknown atoms are simply false at every letter, which is fine too.
  (void)probe;
  return {"G F result", "F result", "G(request -> F(result || reject))",
          "G F pass_0", "true U result", "G(result -> !(X result))"};
}

std::vector<Query> mixed_batch(std::size_t size) {
  const auto systems = sample_system_texts();
  const auto formulas = sample_formulas(figure2_system());
  const CheckKind kinds[] = {CheckKind::kRelativeLiveness,
                             CheckKind::kRelativeSafety,
                             CheckKind::kSatisfaction};
  std::vector<Query> batch;
  batch.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    batch.push_back(Query{systems[i % systems.size()],
                          formulas[(i / 2) % formulas.size()],
                          kinds[i % 3]});
  }
  return batch;
}

void expect_identical(const std::vector<Verdict>& a,
                      const std::vector<Verdict>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].holds, b[i].holds) << "query " << i;
    EXPECT_EQ(a[i].error, b[i].error) << "query " << i;
    EXPECT_EQ(a[i].violating_prefix, b[i].violating_prefix) << "query " << i;
    ASSERT_EQ(a[i].counterexample.has_value(), b[i].counterexample.has_value())
        << "query " << i;
    if (a[i].counterexample) {
      EXPECT_EQ(a[i].counterexample->prefix, b[i].counterexample->prefix);
      EXPECT_EQ(a[i].counterexample->period, b[i].counterexample->period);
    }
  }
}

// ---------------------------------------------------------------------------
// Engine determinism and correctness.

TEST(Engine, ParallelBatchIdenticalToSequential64) {
  const std::vector<Query> batch = mixed_batch(64);

  Engine sequential(EngineOptions{.jobs = 1});
  Engine parallel(EngineOptions{.jobs = 4});
  const auto seq = sequential.run(batch);
  const auto par = parallel.run(batch);

  expect_identical(seq, par);

  // The repeated-system workload must actually reuse cached intermediates.
  const EngineStats stats = parallel.stats();
  EXPECT_GT(stats.total().hits, 0u);
  EXPECT_GT(stats.behaviors.hits, 0u);
  EXPECT_EQ(stats.queries_run, 64u);
}

TEST(Engine, AgreesWithDirectLibraryCalls) {
  Engine engine(EngineOptions{.jobs = 2});
  for (const Nfa& system : {figure2_system(), figure3_system()}) {
    const std::string text = serialize_system(system);
    const Buchi behaviors = limit_of_prefix_closed(system);
    const Labeling lambda = Labeling::canonical(system.alphabet());
    const Formula f = parse_ltl("G F result");

    const Verdict rl =
        engine.run_one({text, "G F result", CheckKind::kRelativeLiveness});
    EXPECT_EQ(rl.holds, relative_liveness(behaviors, f, lambda).holds);

    const Verdict rs =
        engine.run_one({text, "G F result", CheckKind::kRelativeSafety});
    EXPECT_EQ(rs.holds, relative_safety(behaviors, f, lambda).holds);

    const Verdict sat =
        engine.run_one({text, "G F result", CheckKind::kSatisfaction});
    EXPECT_EQ(sat.holds, satisfies(behaviors, f, lambda).holds);
  }
}

TEST(Engine, FairChecksMatchRlvCheckSemantics) {
  // Figure 2: strongly fair runs satisfy GF result; weakly fair ones do not.
  const std::string text = serialize_system(figure2_system());
  Engine engine;
  EXPECT_TRUE(
      engine.run_one({text, "G F result", CheckKind::kFairStrong}).holds);
  const Verdict weak =
      engine.run_one({text, "G F result", CheckKind::kFairWeak});
  EXPECT_FALSE(weak.holds);
  EXPECT_TRUE(weak.counterexample.has_value());
}

TEST(Engine, RepeatedQueryHitsVerdictCache) {
  Engine engine;
  const Query q{serialize_system(figure2_system()), "G F result",
                CheckKind::kRelativeLiveness};
  const Verdict first = engine.run_one(q);
  const Verdict second = engine.run_one(q);
  EXPECT_EQ(first.holds, second.holds);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.verdicts.hits, 1u);
  EXPECT_EQ(stats.verdicts.misses, 1u);
  EXPECT_EQ(stats.systems.hits, 1u);
}

TEST(Engine, StructurallyEqualTextsShareVerdicts) {
  // Same automaton, different text (comment) — the parse cache misses but
  // the structural fingerprint matches, so the verdict cache hits.
  const std::string text = serialize_system(figure2_system());
  Engine engine;
  (void)engine.run_one({text, "G F result", CheckKind::kRelativeLiveness});
  (void)engine.run_one(
      {"# same system\n" + text, "G F result", CheckKind::kRelativeLiveness});
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.systems.misses, 2u);
  EXPECT_EQ(stats.verdicts.hits, 1u);
  // The verdict-cache hit short-circuits decide(): the behaviors automaton
  // was only ever built once, for the first query.
  EXPECT_EQ(stats.behaviors.misses, 1u);
  EXPECT_EQ(stats.behaviors.hits, 0u);
}

TEST(Engine, ErrorsAreFoldedIntoVerdicts) {
  Engine engine;
  const Verdict bad_system =
      engine.run_one({"alphabet: a\n", "G F a", CheckKind::kSatisfaction});
  EXPECT_FALSE(bad_system.ok());
  EXPECT_NE(bad_system.error.find("states"), std::string::npos);

  const Verdict bad_formula =
      engine.run_one({serialize_system(figure2_system()), "G F (",
                      CheckKind::kSatisfaction});
  EXPECT_FALSE(bad_formula.ok());

  // A failed parse must not poison the cache for a later good query.
  const Verdict retry = engine.run_one(
      {serialize_system(figure2_system()), "G F result",
       CheckKind::kRelativeLiveness});
  EXPECT_TRUE(retry.ok());
  EXPECT_TRUE(retry.holds);
}

TEST(Engine, RandomSystemsParallelMatchesSequential) {
  Rng rng(2026);
  std::vector<Query> batch;
  for (int i = 0; i < 12; ++i) {
    auto sigma = random_alphabet(3);
    const Nfa system = random_transition_system(rng, 4 + rng.next_below(4),
                                                sigma);
    const Formula f = random_formula(rng, {"a0", "a1", "a2"}, 3);
    batch.push_back(Query{serialize_system(system), f.to_string(),
                          i % 2 ? CheckKind::kRelativeLiveness
                                : CheckKind::kSatisfaction});
  }
  Engine sequential(EngineOptions{.jobs = 1});
  Engine parallel(EngineOptions{.jobs = 4});
  expect_identical(sequential.run(batch), parallel.run(batch));
}

// ---------------------------------------------------------------------------
// Engine::submit answers resident verdicts inline.

void expect_same_counters(const EngineStats& got, const EngineStats& want) {
  const std::pair<const char*, CacheCounters EngineStats::*> caches[] = {
      {"systems", &EngineStats::systems},
      {"behaviors", &EngineStats::behaviors},
      {"prefixes", &EngineStats::prefixes},
      {"translations", &EngineStats::translations},
      {"properties", &EngineStats::properties},
      {"verdicts", &EngineStats::verdicts},
      {"monitors", &EngineStats::monitors}};
  for (const auto& [name, field] : caches) {
    const CacheCounters& g = got.*field;
    const CacheCounters& w = want.*field;
    EXPECT_EQ(g.hits, w.hits) << name;
    EXPECT_EQ(g.coalesced, w.coalesced) << name;
    EXPECT_EQ(g.misses, w.misses) << name;
    EXPECT_EQ(g.evictions, w.evictions) << name;
  }
  EXPECT_EQ(got.queries_run, want.queries_run);
}

/// Submits `query` and waits for its callback; returns the thread `done`
/// ran on.
std::thread::id submit_and_wait(Engine& engine, const Query& query,
                                Verdict& out) {
  std::promise<std::thread::id> ran_on;
  std::future<std::thread::id> ran = ran_on.get_future();
  engine.submit(query, [&](Verdict verdict) {
    out = std::move(verdict);
    ran_on.set_value(std::this_thread::get_id());
  });
  return ran.get();
}

TEST(EngineSubmit, ResidentHitsRunInlineAndCountLikeRunOne) {
  Engine served(EngineOptions{.jobs = 2});
  Engine twin(EngineOptions{.jobs = 2});
  const std::string fig2 = serialize_system(figure2_system());
  Query automaton_query;
  automaton_query.system = fig2;
  automaton_query.kind = CheckKind::kSatisfaction;
  automaton_query.property_automaton =
      "alphabet: result\nstates: 1\ninitial: 0\naccepting: 0\n0 result 0\n";

  struct Case {
    const char* name;
    Query query;
    bool resident;  // its verdict is in the cache when submitted
  };
  const Case cases[] = {
      {"cold", {fig2, "G F result", CheckKind::kRelativeLiveness}, false},
      {"full hit", {fig2, "G F result", CheckKind::kRelativeLiveness}, true},
      {"system resident, verdict not",
       {fig2, "F result", CheckKind::kRelativeLiveness},
       false},
      {"automaton flavor, cold", automaton_query, false},
      {"automaton flavor, full hit", automaton_query, true},
  };
  const std::thread::id caller = std::this_thread::get_id();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Verdict got;
    const std::thread::id ran_on = submit_and_wait(served, c.query, got);
    const Verdict want = twin.run_one(c.query);
    EXPECT_EQ(ran_on == caller, c.resident);
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_EQ(got.holds, want.holds);
    EXPECT_EQ(got.violating_prefix, want.violating_prefix);
    EXPECT_EQ(got.counterexample.has_value(), want.counterexample.has_value());
    expect_same_counters(served.stats(), twin.stats());
  }
}

// ---------------------------------------------------------------------------
// One tableau per formula polarity, instantiated on every system's alphabet.

TEST(Engine, OneTranslationServesSystemsOnDifferentAlphabets) {
  Rng rng(1017);
  // The third alphabet lacks `ack`: the atom is false at every letter.
  const std::vector<std::vector<std::string>> alphabets = {
      {"req", "ack"}, {"ack", "idle", "req"}, {"req", "idle"}};
  const std::string formula = "G(req -> F ack) && G F req";
  EngineOptions options;
  options.certify_verdicts = true;
  Engine engine(options);
  for (const auto& names : alphabets) {
    const std::string system = serialize_system(
        random_transition_system(rng, 5, Alphabet::make(names)));
    for (const CheckKind kind :
         {CheckKind::kRelativeLiveness, CheckKind::kRelativeSafety,
          CheckKind::kSatisfaction}) {
      const Query query{system, formula, kind};
      const Verdict got = engine.run_one(query);
      Engine fresh{EngineOptions{}};
      const Verdict want = fresh.run_one(query);
      ASSERT_TRUE(got.ok()) << got.error;
      EXPECT_EQ(got.holds, want.holds);
      EXPECT_EQ(got.violating_prefix, want.violating_prefix);
      EXPECT_EQ(got.counterexample.has_value(),
                want.counterexample.has_value());
    }
  }
  // rl reads P, rs reads P and ¬P, sat reads ¬P: 4 lookups per system, and
  // only the first system's two polarities were built (by rl and rs).
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.translations.misses, 2u);
  EXPECT_EQ(stats.translations.hits, 10u);
  EXPECT_GT(stats.certificates_checked, 0u);
  EXPECT_EQ(stats.certificates_failed, 0u);
}

// ---------------------------------------------------------------------------
// MemoCache semantics.

TEST(MemoCache, ComputeOnceUnderContention) {
  MemoCache<int, int> cache(64);
  std::atomic<int> computations{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        auto value = cache.get_or_compute(i % 10, [&] {
          computations.fetch_add(1);
          return i % 10;
        });
        EXPECT_EQ(*value, i % 10);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computations.load(), 10);
  const CacheCounters counters = cache.counters();
  EXPECT_EQ(counters.misses, 10u);
  // Every non-miss lookup either hit a resident value or joined an
  // in-flight computation; only the former count as hits.
  EXPECT_EQ(counters.hits + counters.coalesced, 8u * 100u - 10u);
}

TEST(MemoCache, EvictsLeastRecentlyUsed) {
  MemoCache<int, int> cache(2);
  (void)cache.get_or_compute(1, [] { return 1; });
  (void)cache.get_or_compute(2, [] { return 2; });
  (void)cache.get_or_compute(1, [] { return 1; });  // refresh 1
  (void)cache.get_or_compute(3, [] { return 3; });  // evicts 2
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.get_or_compute(1, [] { return -1; });  // still cached
  EXPECT_EQ(cache.counters().hits, 2u);
  int recomputed = 0;
  (void)cache.get_or_compute(2, [&] {
    recomputed = 1;
    return 2;
  });
  EXPECT_EQ(recomputed, 1);  // 2 was evicted
}

TEST(MemoCache, ExceptionEvictsEntryAndPropagates) {
  MemoCache<int, int> cache(8);
  EXPECT_THROW((void)cache.get_or_compute(
                   1, []() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  auto value = cache.get_or_compute(1, [] { return 7; });
  EXPECT_EQ(*value, 7);
  EXPECT_EQ(cache.counters().misses, 2u);
}

TEST(MemoCache, JoinedCallerRetriesAfterAnotherCallersOwnFailure) {
  // The first caller's computation fails with an error of its own (say its
  // budget ran out) while a second caller waits on it. The second caller
  // retries with its own function instead of inheriting that failure; the
  // first caller still gets its error.
  MemoCache<int, int> cache(8);
  std::promise<void> computing;
  auto first = std::async(std::launch::async, [&] {
    return cache.get_or_compute_own<std::range_error>(1, [&]() -> int {
      computing.set_value();
      while (cache.counters().coalesced == 0) std::this_thread::yield();
      throw std::range_error("first caller's budget");
    });
  });
  computing.get_future().wait();
  const auto value =
      cache.get_or_compute_own<std::range_error>(1, [] { return 7; });
  EXPECT_EQ(*value, 7);
  EXPECT_THROW((void)first.get(), std::range_error);
  EXPECT_EQ(cache.counters().misses, 2u);
  EXPECT_EQ(cache.counters().coalesced, 1u);
}

TEST(Engine, EvictionCountersSurfaceInStats) {
  // A capacity-1 cache over four distinct systems must evict.
  Engine engine(EngineOptions{.jobs = 1, .cache_capacity = 1});
  for (const auto& text : sample_system_texts()) {
    (void)engine.run_one({text, "G F result", CheckKind::kSatisfaction});
  }
  EXPECT_GT(engine.stats().total().evictions, 0u);
}

TEST(Engine, StructurallyEqualTextsKeepOneAlphabetUnderEviction) {
  // Two texts that parse to one structure share the structure-keyed
  // behaviors and prefixes caches, each with its own alphabet object. With
  // capacity 1 those caches evict independently: the third query meets a
  // fresh behaviors automaton (new text's alphabet) and a cached pre(L_ω)
  // built over the first text's alphabet.
  const std::string fig2 = serialize_system(figure2_system());
  const std::string fig3 = serialize_system(figure3_system());
  Engine engine(EngineOptions{.jobs = 1, .cache_capacity = 1});
  ASSERT_TRUE(
      engine.run_one({fig2, "G F result", CheckKind::kRelativeLiveness}).ok());
  ASSERT_TRUE(
      engine.run_one({fig3, "G F result", CheckKind::kSatisfaction}).ok());
  const Verdict v = engine.run_one(
      {fig2 + "# same structure, new text\n", "G F request",
       CheckKind::kRelativeLiveness});
  ASSERT_TRUE(v.ok()) << v.error;

  const Nfa system = figure2_system();
  EXPECT_EQ(v.holds, relative_liveness(limit_of_prefix_closed(system),
                                       parse_ltl("G F request"),
                                       Labeling::canonical(system.alphabet()))
                         .holds);
}

// ---------------------------------------------------------------------------
// ThreadPool.

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
  pool.wait_idle();  // must not block with an empty queue
}

/// Threads of this process, from /proc/self/status.
std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      std::size_t threads = 0;
      status >> threads;
      return threads;
    }
  }
  return 0;
}

TEST(ThreadPool, StartsWorkersOnFirstSubmit) {
  // Threads joined by earlier tests finish exiting first.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::size_t before = process_threads();
  ASSERT_GT(before, 0u);
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  // A serving engine never submits, so its pool costs no threads.
  EXPECT_EQ(process_threads(), before);
  pool.submit([] {});
  pool.wait_idle();
  EXPECT_EQ(process_threads(), before + 3);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) pool.submit([&] { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 64);
}

// ---------------------------------------------------------------------------
// Fingerprints.

TEST(Fingerprint, SensitiveToStructureNotText) {
  const Nfa fig2 = figure2_system();
  const Nfa fig3 = figure3_system();
  EXPECT_NE(fingerprint_nfa(fig2), fingerprint_nfa(fig3));
  // Reparse of the serialization reproduces the structural fingerprint.
  const Nfa reparsed = parse_system(serialize_system(fig2));
  EXPECT_EQ(fingerprint_nfa(fig2), fingerprint_nfa(reparsed));
  // Text fingerprints differ on any byte change.
  EXPECT_NE(fingerprint_text("a"), fingerprint_text("b"));
  EXPECT_NE(fingerprint_text(""), fingerprint_text(std::string_view("\0", 1)));
}

TEST(Fingerprint, AcceptanceChangesHash) {
  auto sigma = Alphabet::make({"a"});
  Nfa x(sigma);
  const State s = x.add_state(true);
  x.add_transition(s, 0, s);
  x.set_initial(s);
  Nfa y(sigma);
  const State t = y.add_state(false);
  y.add_transition(t, 0, t);
  y.set_initial(t);
  EXPECT_NE(fingerprint_nfa(x), fingerprint_nfa(y));
}

TEST(CheckKind, NamesRoundTrip) {
  for (const CheckKind kind :
       {CheckKind::kRelativeLiveness, CheckKind::kRelativeSafety,
        CheckKind::kSatisfaction, CheckKind::kFairStrong,
        CheckKind::kFairWeak}) {
    EXPECT_EQ(parse_check_kind(check_kind_name(kind)), kind);
  }
  EXPECT_FALSE(parse_check_kind("bogus").has_value());
}

// ---------------------------------------------------------------------------
// Verdict cache keying.

TEST(Engine, CertifyRequestIsNeverServedAnUncertifiedVerdict) {
  // certify only strengthens: a certify request that finds the verdict an
  // uncertified query cached must still get a validated witness, so the
  // effective certify bit is part of the verdict key.
  Query plain{serialize_system(figure3_system()), "G F result",
              CheckKind::kRelativeLiveness};
  Query certified = plain;
  certified.certify = true;

  Engine engine;
  const Verdict v_plain = engine.run_one(plain);
  ASSERT_FALSE(v_plain.holds);
  EXPECT_EQ(engine.stats().certificates_checked, 0u);
  const Verdict v_certified = engine.run_one(certified);
  ASSERT_TRUE(v_certified.ok()) << v_certified.error;
  EXPECT_EQ(v_certified.holds, v_plain.holds);
  EXPECT_EQ(engine.stats().certificates_checked, 1u);
  EXPECT_EQ(engine.stats().verdicts.misses, 2u);

  // Re-running either query now hits its own entry; nothing is re-checked.
  (void)engine.run_one(certified);
  (void)engine.run_one(plain);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.verdicts.hits, 2u);
  EXPECT_EQ(stats.certificates_checked, 1u);
}

TEST(Engine, PlainRequestIsServedAResidentCertifiedVerdict) {
  // The sound direction of the certify bit: a validated verdict answers a
  // request that did not ask for validation, without recomputing it.
  Query certified{serialize_system(figure3_system()), "G F result",
                  CheckKind::kRelativeLiveness};
  certified.certify = true;
  Query plain = certified;
  plain.certify = false;

  Engine engine;
  const Verdict v_certified = engine.run_one(certified);
  ASSERT_TRUE(v_certified.ok()) << v_certified.error;
  const Verdict v_plain = engine.run_one(plain);
  ASSERT_TRUE(v_plain.ok()) << v_plain.error;
  EXPECT_EQ(v_plain.holds, v_certified.holds);
  EXPECT_EQ(v_plain.violating_prefix, v_certified.violating_prefix);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.verdicts.hits, 1u);
  EXPECT_EQ(stats.verdicts.misses, 1u);
  EXPECT_EQ(stats.certificates_checked, 1u);
}

TEST(Engine, VerdictCacheDoesNotAliasFormulaAndAutomatonFlavors) {
  // A formula query and an automaton-flavor query against the same system
  // key on different fields (interned formula vs property fingerprint);
  // neither may serve the other's verdict.
  const std::string system_text = serialize_system(figure2_system());
  // "infinitely many result" as an automaton over the fig2 alphabet.
  Buchi property(figure2_system().alphabet());
  const State wait = property.add_state(false);
  const State saw = property.add_state(true);
  property.set_initial(wait);
  const AlphabetRef sigma = property.alphabet();
  for (Symbol a = 0; a < sigma->size(); ++a) {
    const bool is_result = sigma->name(a) == std::string_view("result");
    property.add_transition(wait, a, is_result ? saw : wait);
    property.add_transition(saw, a, is_result ? saw : wait);
  }

  Query formula_query{system_text, "G F result",
                      CheckKind::kRelativeLiveness};
  Query automaton_query;
  automaton_query.system = system_text;
  automaton_query.kind = CheckKind::kRelativeLiveness;
  automaton_query.property_automaton = serialize_buchi(property);

  Engine engine;
  const Verdict from_formula = engine.run_one(formula_query);
  const Verdict from_automaton = engine.run_one(automaton_query);
  EXPECT_EQ(engine.stats().verdicts.misses, 2u);
  EXPECT_EQ(engine.stats().verdicts.hits, 0u);
  ASSERT_TRUE(from_formula.ok());
  ASSERT_TRUE(from_automaton.ok());
  // Both encode "G F result", so the answers agree (rl holds for fig2).
  EXPECT_TRUE(from_formula.holds);
  EXPECT_TRUE(from_automaton.holds);
}

TEST(Engine, AutomatonFlavorRemapsPropertyAlphabetByName) {
  // The property automaton is parsed against its own alphabet object; the
  // engine must remap it onto the system's alphabet before intersecting.
  const std::string system_text = serialize_system(figure2_system());
  const std::string property_text =
      "alphabet: result lock free request yes no reject\n"  // permuted order
      "states: 1\n"
      "initial: 0\n"
      "accepting: 0\n"
      "0 result 0\n"
      "0 lock 0\n"
      "0 free 0\n"
      "0 request 0\n"
      "0 yes 0\n"
      "0 no 0\n"
      "0 reject 0\n";
  Query query;
  query.system = system_text;
  query.kind = CheckKind::kSatisfaction;
  query.property_automaton = property_text;

  Engine engine;
  const Verdict verdict = engine.run_one(query);
  ASSERT_TRUE(verdict.ok()) << verdict.error;
  EXPECT_TRUE(verdict.holds);  // Σ^ω property: trivially satisfied
}

}  // namespace
}  // namespace rlv
