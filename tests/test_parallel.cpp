// Differential tests across kernel configurations:
//
//   * subset vs antichain check_inclusion — the boolean verdict must be
//     identical on every random instance; a counterexample is validated by
//     revalidation (membership in L(a) \ L(b)), never by comparing words;
//   * materialized (intersect_buchi + omega_empty) vs on-the-fly
//     (find_accepting_lasso_product) emptiness,
//     2-ary and 3-ary;
//   * relative_liveness with both inclusion algorithms, rs/sat through the
//     lazy products, and the Theorem 4.7 identity;
//   * the witness-memory and antichain regressions (deep-chain shortest
//     counterexample, heavy-subsumption frontier counter, stale queued
//     configurations, budget exhaustion).

#include <gtest/gtest.h>

#include <algorithm>

#include "rlv/core/relative.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/emptiness.hpp"
#include "rlv/omega/lasso.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/omega/product.hpp"
#include "rlv/util/rng.hpp"

namespace rlv {
namespace {

// ---------------------------------------------------------------------------
// Inclusion: subset vs antichain.

class InclusionDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(InclusionDifferential, AntichainVerdictMatchesSubset) {
  Rng rng(GetParam() * 2654435761 + 7);
  auto sigma = random_alphabet(2);
  const Nfa a = random_nfa(rng, 3 + rng.next_below(5), sigma);
  const Nfa b = random_nfa(rng, 3 + rng.next_below(5), sigma);

  const InclusionResult subset =
      check_inclusion(a, b, InclusionAlgorithm::kSubset);
  const InclusionResult antichain =
      check_inclusion(a, b, InclusionAlgorithm::kAntichain);
  ASSERT_EQ(subset.included, antichain.included);
  for (const InclusionResult* r : {&subset, &antichain}) {
    if (r->included) continue;
    // Revalidate, don't byte-compare: any word of L(a) \ L(b) is correct.
    ASSERT_TRUE(r->counterexample.has_value());
    EXPECT_TRUE(a.accepts(*r->counterexample));
    EXPECT_FALSE(b.accepts(*r->counterexample));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InclusionDifferential,
                         ::testing::Range<std::uint64_t>(0, 300));

// ---------------------------------------------------------------------------
// Emptiness: materialized product vs on-the-fly product.

class EmptinessDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EmptinessDifferential, LazyProductMatchesMaterialized) {
  Rng rng(GetParam() * 1099511628211 + 13);
  auto sigma = random_alphabet(2);
  const Buchi a = random_buchi(rng, 2 + rng.next_below(4), sigma);
  const Buchi b = random_buchi(rng, 2 + rng.next_below(4), sigma);
  const Buchi c = random_buchi(rng, 2 + rng.next_below(3), sigma);

  // 2-ary.
  const bool materialized2 = omega_empty(intersect_buchi(a, b));
  const auto lasso2 = find_accepting_lasso_product({&a, &b});
  EXPECT_EQ(!lasso2.has_value(), materialized2);
  if (lasso2) {
    EXPECT_TRUE(accepts_lasso(a, *lasso2));
    EXPECT_TRUE(accepts_lasso(b, *lasso2));
  }

  // 3-ary: one lazy triple product vs a chain of materialized pairs.
  const bool materialized3 = omega_empty(intersect_buchi(intersect_buchi(a, b), c));
  const auto lasso3 = find_accepting_lasso_product({&a, &b, &c});
  EXPECT_EQ(!lasso3.has_value(), materialized3);
  if (lasso3) {
    EXPECT_TRUE(accepts_lasso(a, *lasso3));
    EXPECT_TRUE(accepts_lasso(b, *lasso3));
    EXPECT_TRUE(accepts_lasso(c, *lasso3));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmptinessDifferential,
                         ::testing::Range<std::uint64_t>(0, 250));

// ---------------------------------------------------------------------------
// Full checks: rl (both inclusion algorithms), rs/sat (lazy products) against
// the materialized decision procedures.

class CheckDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckDifferential, VerdictsAgreeAcrossAlgorithms) {
  Rng rng(GetParam() * 96557 + 29);
  auto sigma = random_alphabet(2);
  const Nfa ts = random_transition_system(rng, 2 + rng.next_below(4), sigma);
  if (ts.num_states() == 0) return;
  const Buchi system = limit_of_prefix_closed(ts);
  const Labeling lambda = Labeling::canonical(sigma);
  const Formula f =
      random_formula(rng, {sigma->name(0), sigma->name(1)}, 2);

  // Relative liveness: check()'s antichain inclusion vs the Lemma 4.3
  // inclusion run by hand under each algorithm.
  const auto rl = relative_liveness(system, f, lambda);
  const Buchi property = translate_ltl(f, lambda);
  const Nfa pre_sys = prefix_nfa(system);
  for (const InclusionAlgorithm algorithm :
       {InclusionAlgorithm::kSubset, InclusionAlgorithm::kAntichain}) {
    const InclusionResult inc = check_inclusion(
        pre_sys, prefix_of_intersection(system, property), algorithm);
    ASSERT_EQ(inc.included, rl.holds) << f.to_string();
    if (!inc.included) {
      // The violating prefix must be a system prefix with no continuation
      // into L_ω ∩ P — exactly Lemma 4.3's counterexample condition.
      ASSERT_TRUE(inc.counterexample.has_value());
      const Nfa pre_both = prefix_nfa(intersect_buchi(system, property));
      EXPECT_TRUE(pre_sys.accepts(*inc.counterexample)) << f.to_string();
      EXPECT_FALSE(pre_both.accepts(*inc.counterexample)) << f.to_string();
    }
  }

  // Satisfaction through the lazy product vs the materialized equivalent.
  const auto sat = satisfies(system, f, lambda);
  ASSERT_FALSE(sat.exhausted.has_value());
  const Buchi negated = translate_ltl_negated(f, lambda);
  EXPECT_EQ(sat.holds, omega_empty(intersect_buchi(system, negated)))
      << f.to_string();

  // Relative safety (lazy triple product): Theorem 4.7 cross-check —
  // satisfaction ⟺ relative liveness ∧ relative safety.
  const auto rs = relative_safety(system, f, lambda);
  ASSERT_FALSE(rs.exhausted.has_value());
  EXPECT_EQ(sat.holds, rl.holds && rs.holds) << f.to_string();
  if (rs.counterexample) {
    // A genuine behavior of the system violating P.
    EXPECT_TRUE(accepts_lasso(system, *rs.counterexample)) << f.to_string();
    EXPECT_TRUE(accepts_lasso(negated, *rs.counterexample)) << f.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckDifferential,
                         ::testing::Range<std::uint64_t>(0, 150));

// ---------------------------------------------------------------------------
// Witness-memory regression: the deep-chain family has a unique shortest
// counterexample of length n. The BFS must still return exactly it
// (shortest-path guarantee survives the parent-pointer rewrite), and the
// explored frontier must stay linear in n — the old full-Word
// representation held Θ(n²) symbols at peak on this family.

TEST(WitnessMemory, DeepChainShortestCounterexample) {
  constexpr std::size_t kDepth = 1500;
  auto sigma = random_alphabet(2);

  // a accepts exactly { 0^kDepth }; b accepts { 0^k | k < kDepth }.
  Nfa a(sigma);
  Nfa b(sigma);
  State pa = a.add_state(false);
  State pb = b.add_state(true);
  a.set_initial(pa);
  b.set_initial(pb);
  for (std::size_t i = 0; i < kDepth; ++i) {
    const State na = a.add_state(i + 1 == kDepth);
    a.add_transition(pa, 0, na);
    pa = na;
    const State nb = b.add_state(i + 1 < kDepth);
    b.add_transition(pb, 0, nb);
    pb = nb;
  }

  for (const InclusionAlgorithm algorithm :
       {InclusionAlgorithm::kSubset, InclusionAlgorithm::kAntichain}) {
    Budget budget;
    const InclusionResult res = check_inclusion(a, b, algorithm, &budget);
    EXPECT_FALSE(res.included);
    ASSERT_TRUE(res.counterexample.has_value());
    // Unique witness: exactly 0^kDepth — and the shortest by BFS order.
    EXPECT_EQ(res.counterexample->size(), kDepth);
    EXPECT_TRUE(a.accepts(*res.counterexample));
    const StageMetrics& m = budget.profile()[Stage::kInclusion];
    // Linear exploration: one configuration per chain position.
    EXPECT_LE(m.states_built, 2 * (kDepth + 1));
    EXPECT_LE(m.peak_antichain, 2 * (kDepth + 1));
  }
}

// ---------------------------------------------------------------------------
// Antichain-accounting regression: dense random instances cause insertions
// that subsume several stored elements at once; the frontier counter
// reported through budget_note_frontier must never drift from the true
// antichain size (the Debug build asserts exact equality after every
// insertion) and never underflow (size_t wraparound would report absurd
// peaks).

TEST(AntichainAccounting, HeavySubsumptionKeepsCounterExact) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
    auto sigma = random_alphabet(2);
    // Dense right-hand automata maximize distinct subset states and
    // therefore subsumption churn.
    const Nfa a = random_nfa(rng, 4 + rng.next_below(4), sigma);
    const Nfa b = random_nfa(rng, 6 + rng.next_below(5), sigma);
    Budget budget;
    const InclusionResult res =
        check_inclusion(a, b, InclusionAlgorithm::kAntichain, &budget);
    const StageMetrics& m = budget.profile()[Stage::kInclusion];
    // The peak frontier can never exceed the number of insertions, and a
    // size_t underflow would blow it past this bound by ~2^64.
    EXPECT_LE(m.peak_antichain, m.states_built) << "seed=" << seed;
    if (!res.included) {
      ASSERT_TRUE(res.counterexample.has_value());
      EXPECT_TRUE(a.accepts(*res.counterexample));
      EXPECT_FALSE(b.accepts(*res.counterexample));
    }
  }
}

/// (a|b)* a (a|b)^{n-1}: "the n-th letter from the end is a". Its DFA needs
/// 2^n states, so self-inclusion is the classic exponential instance.
Nfa nth_from_end(std::size_t n, const AlphabetRef& sigma) {
  Nfa nfa(sigma);
  const State s0 = nfa.add_state(false);
  nfa.add_transition(s0, 0, s0);
  nfa.add_transition(s0, 1, s0);
  State prev = nfa.add_state(n == 1);
  nfa.add_transition(s0, 0, prev);
  for (std::size_t i = 1; i < n; ++i) {
    const State next = nfa.add_state(i + 1 == n);
    nfa.add_transition(prev, 0, next);
    nfa.add_transition(prev, 1, next);
    prev = next;
  }
  nfa.set_initial(s0);
  return nfa;
}

// Stale-configuration regression: a configuration whose right-hand set was
// subsumed after it was queued must not be expanded. Expanding them anyway
// explores all 2^n subsets of the self-inclusion below (1,048,576 antichain
// insertions at n = 20); dropping them leaves about 2n.
TEST(AntichainAccounting, SkipsConfigurationsSubsumedAfterQueueing) {
  constexpr std::size_t kN = 20;
  auto sigma = random_alphabet(2);
  const Nfa a = nth_from_end(kN, sigma);
  const Nfa b = nth_from_end(kN, sigma);
  Budget budget;
  const InclusionResult res =
      check_inclusion(a, b, InclusionAlgorithm::kAntichain, &budget);
  EXPECT_TRUE(res.included);
  EXPECT_LE(budget.profile()[Stage::kInclusion].states_built, 4 * kN);
}

// ---------------------------------------------------------------------------
// Budget behavior: a tripped budget must surface as ResourceExhausted — no
// crash, no wrong verdict.

TEST(AntichainBudget, ExhaustionSurfacesAsResourceExhausted) {
  // The inclusion HOLDS, so the search has no early counterexample exit and
  // must build more than 3 configurations — guaranteeing the cap trips.
  auto sigma = random_alphabet(2);
  const Nfa a = nth_from_end(10, sigma);
  const Nfa b = nth_from_end(10, sigma);
  Budget budget;
  budget.set_max_states(3);  // trips almost immediately
  EXPECT_THROW(
      {
        const auto res =
            check_inclusion(a, b, InclusionAlgorithm::kAntichain, &budget);
        (void)res;
      },
      ResourceExhausted);
}

}  // namespace
}  // namespace rlv
