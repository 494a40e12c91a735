// Experiment E4 ablation: the NFA-inclusion engine behind Lemma 4.3 —
// antichain (De Wulf et al.) vs full subset construction, on (i) the
// classic exponential family L_n = (a|b)*·a·(a|b)^{n-1} whose DFA needs 2^n
// states, and (ii) random NFA pairs.

#include <benchmark/benchmark.h>

#include "rlv/gen/random.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/util/budget.hpp"
#include "rlv/util/rng.hpp"

namespace {

using namespace rlv;

/// NFA for (a|b)* a (a|b)^{n-1} ("n-th letter from the end is a").
Nfa nth_from_end(std::size_t n, const AlphabetRef& sigma) {
  Nfa nfa(sigma);
  const State s0 = nfa.add_state(false);
  nfa.add_transition(s0, 0, s0);
  nfa.add_transition(s0, 1, s0);
  State prev = nfa.add_state(n == 1);
  nfa.add_transition(s0, 0, prev);  // the distinguished 'a'
  for (std::size_t i = 1; i < n; ++i) {
    const State next = nfa.add_state(i + 1 == n);
    nfa.add_transition(prev, 0, next);
    nfa.add_transition(prev, 1, next);
    prev = next;
  }
  nfa.set_initial(s0);
  return nfa;
}

void BM_Inclusion_ExponentialFamily(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const InclusionAlgorithm algorithm = state.range(1) == 0
                                           ? InclusionAlgorithm::kAntichain
                                           : InclusionAlgorithm::kSubset;
  auto sigma = random_alphabet(2);
  const Nfa a = nth_from_end(n, sigma);
  const Nfa b = nth_from_end(n, sigma);

  bool included = false;
  for (auto _ : state) {
    included = is_included(a, b, algorithm);
    benchmark::DoNotOptimize(included);
  }
  state.counters["included"] = included ? 1 : 0;
}
BENCHMARK(BM_Inclusion_ExponentialFamily)
    // The subset construction at n = 16 takes ~3 minutes (measured once;
    // see EXPERIMENTS.md); the routine run caps it at n = 12 while the
    // antichain variant comfortably goes further.
    ->ArgsProduct({{4, 8, 12, 16, 20}, {0}})
    ->ArgsProduct({{4, 8, 12}, {1}})
    ->ArgNames({"n", "subset"})
    ->Unit(benchmark::kMillisecond);

void BM_Inclusion_RandomPairs(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const InclusionAlgorithm algorithm = state.range(1) == 0
                                           ? InclusionAlgorithm::kAntichain
                                           : InclusionAlgorithm::kSubset;
  Rng rng(42);
  auto sigma = random_alphabet(2);
  std::vector<std::pair<Nfa, Nfa>> pairs;
  for (int i = 0; i < 16; ++i) {
    pairs.emplace_back(random_nfa(rng, n, sigma), random_nfa(rng, n, sigma));
  }
  std::size_t yes = 0;
  for (auto _ : state) {
    for (const auto& [a, b] : pairs) {
      yes += is_included(a, b, algorithm) ? 1 : 0;
    }
  }
  benchmark::DoNotOptimize(yes);
}
BENCHMARK(BM_Inclusion_RandomPairs)
    ->ArgsProduct({{8, 16, 32}, {0, 1}})
    ->ArgNames({"states", "subset"})
    ->Unit(benchmark::kMillisecond);

// Experiment E27: the memory-architecture workload — dense random instances
// where the frontier is multi-word bitsets with most bits set, so the
// kernel's time goes to subset stepping, interning, and dedup rather than
// graph traversal. With `fanout` successors per (state, symbol) cell the
// subset images hover near 86% occupancy (the fixed point of
// k ↦ n(1 - e^{-fanout·k/n})), and the reachable-subset orbit is
// exponential, so each iteration explores a fixed budget of configurations
// instead of running to a verdict: the measured quantity is the cost of
// building + deduplicating 50k dense frontier configs.
Nfa dense_all_accepting(Rng& rng, std::size_t n, std::size_t fanout,
                        const AlphabetRef& sigma) {
  Nfa nfa(sigma);
  for (std::size_t i = 0; i < n; ++i) nfa.add_state(true);
  for (State s = 0; s < n; ++s) {
    for (Symbol a = 0; a < sigma->size(); ++a) {
      for (std::size_t k = 0; k < fanout; ++k) {
        nfa.add_transition_unique(s, a,
                                  static_cast<State>(rng.next_below(n)));
      }
    }
  }
  nfa.set_initial(0);
  return nfa;
}

void BM_Inclusion_DenseFrontier(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const InclusionAlgorithm algorithm = state.range(1) == 0
                                           ? InclusionAlgorithm::kAntichain
                                           : InclusionAlgorithm::kSubset;
  constexpr std::uint64_t kConfigBudget = 50000;
  Rng rng(7);
  auto sigma = random_alphabet(2);
  // a = Σ* (one accepting self-loop state): the search degenerates to a
  // pure dense subset construction over b.
  Nfa a(sigma);
  const State u = a.add_state(true);
  a.add_transition(u, 0, u);
  a.add_transition(u, 1, u);
  a.set_initial(u);
  const Nfa b = dense_all_accepting(rng, n, /*fanout=*/2, sigma);

  std::uint64_t configs = 0;
  for (auto _ : state) {
    Budget budget;
    budget.set_max_states(kConfigBudget);
    try {
      benchmark::DoNotOptimize(is_included(a, b, algorithm, &budget));
    } catch (const ResourceExhausted&) {
      // Expected: the orbit outruns the config budget by design.
    }
    configs += budget.states_used();
  }
  state.counters["configs/s"] = benchmark::Counter(
      static_cast<double>(configs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Inclusion_DenseFrontier)
    ->ArgsProduct({{64, 256, 1024}, {0, 1}})
    ->ArgNames({"states", "subset"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
