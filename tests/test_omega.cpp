// Tests for the ω-automata layer (rlv_omega): degeneralization, Büchi
// products, live states / pre(L_ω), emptiness (SCC and nested DFS),
// ultimately-periodic membership, limits of prefix-closed languages,
// rank-based complementation, and Streett emptiness.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "rlv/cert/certificate.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/omega/buchi.hpp"
#include "rlv/omega/complement.hpp"
#include "rlv/omega/emptiness.hpp"
#include "rlv/omega/expr.hpp"
#include "rlv/omega/lasso.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/omega/product.hpp"
#include "rlv/omega/streett.hpp"
#include "rlv/util/rng.hpp"

namespace rlv {
namespace {

AlphabetRef ab() {
  static AlphabetRef sigma = Alphabet::make({"a", "b"});
  return sigma;
}

Symbol A() { return ab()->id("a"); }
Symbol B() { return ab()->id("b"); }

/// Büchi automaton for "infinitely many a" over {a,b}.
Buchi inf_a() {
  Buchi buchi(ab());
  const State s0 = buchi.add_state(false);
  const State s1 = buchi.add_state(true);
  buchi.add_transition(s0, B(), s0);
  buchi.add_transition(s0, A(), s1);
  buchi.add_transition(s1, A(), s1);
  buchi.add_transition(s1, B(), s0);
  buchi.set_initial(s0);
  return buchi;
}

/// Büchi automaton for "infinitely many b" over {a,b}.
Buchi inf_b() {
  Buchi buchi(ab());
  const State s0 = buchi.add_state(false);
  const State s1 = buchi.add_state(true);
  buchi.add_transition(s0, A(), s0);
  buchi.add_transition(s0, B(), s1);
  buchi.add_transition(s1, B(), s1);
  buchi.add_transition(s1, A(), s0);
  buchi.set_initial(s0);
  return buchi;
}

/// Büchi automaton for "finitely many a" (eventually only b).
Buchi fin_a() {
  Buchi buchi(ab());
  const State s0 = buchi.add_state(false);
  const State s1 = buchi.add_state(true);
  buchi.add_transition(s0, A(), s0);
  buchi.add_transition(s0, B(), s0);
  buchi.add_transition(s0, B(), s1);
  buchi.add_transition(s1, B(), s1);
  buchi.set_initial(s0);
  return buchi;
}

Buchi random_buchi(Rng& rng, std::size_t num_states) {
  Buchi buchi(ab());
  for (std::size_t i = 0; i < num_states; ++i) {
    buchi.add_state(rng.chance(1, 3));
  }
  for (State s = 0; s < num_states; ++s) {
    for (Symbol c = 0; c < 2; ++c) {
      const std::uint64_t fanout = rng.next_below(3);
      for (std::uint64_t k = 0; k < fanout; ++k) {
        buchi.structure().add_transition_unique(
            s, c, static_cast<State>(rng.next_below(num_states)));
      }
    }
  }
  buchi.set_initial(static_cast<State>(rng.next_below(num_states)));
  return buchi;
}

Word random_word(Rng& rng, std::size_t min_len, std::size_t max_len) {
  Word w;
  const std::size_t len = min_len + rng.next_below(max_len - min_len + 1);
  for (std::size_t i = 0; i < len; ++i) {
    w.push_back(static_cast<Symbol>(rng.next_below(2)));
  }
  return w;
}

TEST(Lasso, BasicMembership) {
  const Buchi a = inf_a();
  EXPECT_TRUE(accepts_lasso(a, {}, {A()}));           // a^ω
  EXPECT_TRUE(accepts_lasso(a, {B()}, {B(), A()}));   // b (ba)^ω
  EXPECT_FALSE(accepts_lasso(a, {A()}, {B()}));       // a b^ω
  EXPECT_FALSE(accepts_lasso(a, {}, {B()}));          // b^ω
}

TEST(Lasso, FinAButtonholesPeriodicity) {
  const Buchi a = fin_a();
  EXPECT_TRUE(accepts_lasso(a, {A(), A()}, {B()}));
  EXPECT_FALSE(accepts_lasso(a, {}, {B(), A()}));
  // Same ω-word written with a longer period and shifted prefix.
  EXPECT_TRUE(accepts_lasso(a, {A(), B()}, {B(), B(), B()}));
}

TEST(Degeneralize, TwoSetsIntersection) {
  // One-state GBA over {a,b} with sets {seen-a}, {seen-b} cannot be stated
  // with one state; use the 2-state skeleton tracking the last symbol.
  GenBuchi gba(ab());
  const State sa = gba.structure.add_state();
  const State sb = gba.structure.add_state();
  gba.structure.add_transition(sa, A(), sa);
  gba.structure.add_transition(sa, B(), sb);
  gba.structure.add_transition(sb, A(), sa);
  gba.structure.add_transition(sb, B(), sb);
  gba.structure.set_initial(sa);
  gba.structure.set_initial(sb);
  DynBitset f1(2);
  f1.set(sa);  // visits "just read a" infinitely often
  DynBitset f2(2);
  f2.set(sb);  // visits "just read b" infinitely often
  gba.sets.push_back(f1);
  gba.sets.push_back(f2);

  const Buchi buchi = degeneralize(gba);
  EXPECT_TRUE(accepts_lasso(buchi, {}, {A(), B()}));
  EXPECT_TRUE(accepts_lasso(buchi, {B()}, {B(), A(), A()}));
  EXPECT_FALSE(accepts_lasso(buchi, {}, {A()}));
  EXPECT_FALSE(accepts_lasso(buchi, {A()}, {B()}));
}

TEST(Degeneralize, ZeroSetsAcceptsAllRuns) {
  GenBuchi gba(ab());
  const State s = gba.structure.add_state();
  gba.structure.add_transition(s, A(), s);
  gba.structure.set_initial(s);
  const Buchi buchi = degeneralize(gba);
  EXPECT_TRUE(accepts_lasso(buchi, {}, {A()}));
  EXPECT_FALSE(accepts_lasso(buchi, {}, {B()}));  // no run at all
}

/// Reachable states of the full counter construction — all |Q| * (k+1)
/// (state, level) copies, reachable or not, were once materialized.
std::size_t full_counter_reachable(const GenBuchi& gba) {
  const std::size_t n = gba.structure.num_states();
  const std::size_t k = gba.sets.size();
  const auto advance = [&](State s, std::size_t level) {
    while (level < k && gba.sets[level].test(s)) ++level;
    return level;
  };
  std::vector<bool> seen(n * (k + 1), false);
  std::vector<std::pair<State, std::size_t>> queue;
  const auto visit = [&](State s, std::size_t level) {
    if (seen[level * n + s]) return;
    seen[level * n + s] = true;
    queue.emplace_back(s, level);
  };
  for (const State s : gba.structure.initial()) visit(s, advance(s, 0));
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const auto [s, level] = queue[i];
    for (const auto& t : gba.structure.out(s)) {
      visit(t.target, advance(t.target, level == k ? 0 : level));
    }
  }
  return queue.size();
}

TEST(Degeneralize, BuildsOnlyReachablePairs) {
  Rng rng(20261017);
  for (int round = 0; round < 500; ++round) {
    const std::size_t n = 1 + rng.next_below(6);
    GenBuchi gba(ab());
    for (std::size_t i = 0; i < n; ++i) gba.structure.add_state();
    for (State s = 0; s < n; ++s) {
      for (Symbol c = 0; c < 2; ++c) {
        const std::uint64_t fanout = rng.next_below(3);
        for (std::uint64_t f = 0; f < fanout; ++f) {
          gba.structure.add_transition_unique(
              s, c, static_cast<State>(rng.next_below(n)));
        }
      }
    }
    gba.structure.set_initial(static_cast<State>(rng.next_below(n)));
    const std::size_t k = rng.next_below(4);
    for (std::size_t i = 0; i < k; ++i) {
      DynBitset set(n);
      for (State s = 0; s < n; ++s) {
        if (rng.chance(1, 2)) set.set(s);
      }
      gba.sets.push_back(std::move(set));
    }

    const Buchi buchi = degeneralize(gba);
    const std::size_t reachable = buchi.structure().reachable().count();
    EXPECT_LE(reachable, full_counter_reachable(gba)) << "round " << round;
    if (k <= 1) {
      // The structure itself, with the one set (or every state) accepting.
      ASSERT_EQ(buchi.num_states(), n);
      EXPECT_EQ(buchi.num_transitions(), gba.structure.num_transitions());
      for (State s = 0; s < n; ++s) {
        EXPECT_EQ(buchi.is_accepting(s), k == 0 || gba.sets[0].test(s));
      }
    } else {
      EXPECT_EQ(buchi.num_states(), reachable) << "round " << round;
    }
    for (int i = 0; i < 10; ++i) {
      const Word u = random_word(rng, 0, 3);
      const Word v = random_word(rng, 1, 4);
      EXPECT_EQ(accepts_lasso_gen(gba, u, v), accepts_lasso(buchi, u, v))
          << "round " << round << " u=" << ab()->format(u)
          << " v=" << ab()->format(v) << " sets=" << k;
    }
  }
}

TEST(Product, InfAAndInfB) {
  const Buchi both = intersect_buchi(inf_a(), inf_b());
  EXPECT_TRUE(accepts_lasso(both, {}, {A(), B()}));
  EXPECT_FALSE(accepts_lasso(both, {}, {A()}));
  EXPECT_FALSE(accepts_lasso(both, {B()}, {B()}));
  EXPECT_FALSE(omega_empty(both));
}

TEST(Product, DisjointIsEmpty) {
  const Buchi never = intersect_buchi(inf_a(), fin_a());
  EXPECT_TRUE(omega_empty(never));
  EXPECT_FALSE(find_accepting_lasso_product({&never}).has_value());
}

TEST(Union, AcceptsEither) {
  const Buchi either = union_buchi(intersect_buchi(inf_a(), fin_a()), inf_b());
  EXPECT_TRUE(accepts_lasso(either, {}, {B()}));
  EXPECT_FALSE(accepts_lasso(either, {}, {A()}));
}

TEST(Live, TrimRemovesDeadParts) {
  Buchi buchi(ab());
  const State s0 = buchi.add_state(false);
  const State s1 = buchi.add_state(true);
  const State dead = buchi.add_state(true);  // accepting but no cycle
  buchi.add_transition(s0, A(), s1);
  buchi.add_transition(s1, A(), s1);
  buchi.add_transition(s0, B(), dead);
  buchi.set_initial(s0);

  const DynBitset live = live_states(buchi);
  EXPECT_TRUE(live.test(s0));
  EXPECT_TRUE(live.test(s1));
  EXPECT_FALSE(live.test(dead));

  const Buchi trimmed = trim_omega(buchi);
  EXPECT_EQ(trimmed.num_states(), 2u);
  EXPECT_TRUE(accepts_lasso(trimmed, {}, {A()}));
}

TEST(Live, PrefixNfaIsPreOfOmegaLanguage) {
  // pre(L(inf_a)) = Σ*: every finite word extends to an accepted ω-word.
  const Nfa pre = prefix_nfa(inf_a());
  Nfa total(ab());
  const State s = total.add_state(true);
  total.add_transition(s, A(), s);
  total.add_transition(s, B(), s);
  total.set_initial(s);
  EXPECT_TRUE(nfa_equivalent(pre, total));
}

TEST(Emptiness, LassoWitnessIsAccepted) {
  const Buchi both = intersect_buchi(inf_a(), inf_b());
  const auto lasso = find_accepting_lasso_product({&both});
  ASSERT_TRUE(lasso.has_value());
  EXPECT_FALSE(lasso->period.empty());
  EXPECT_TRUE(accepts_lasso(both, *lasso));
  // The witness must contain both letters in its period.
  EXPECT_TRUE(std::count(lasso->period.begin(), lasso->period.end(), A()) > 0);
  EXPECT_TRUE(std::count(lasso->period.begin(), lasso->period.end(), B()) > 0);
}

TEST(Limit, PrefixClosedSmallSystem) {
  // System: s0 -a-> s0, s0 -b-> s1 (s1 terminal). L = a* + a*b,
  // lim(L) = a^ω.
  Nfa nfa(ab());
  const State s0 = nfa.add_state(true);
  const State s1 = nfa.add_state(true);
  nfa.add_transition(s0, A(), s0);
  nfa.add_transition(s0, B(), s1);
  nfa.set_initial(s0);

  const Buchi lim = limit_of_prefix_closed(nfa);
  EXPECT_TRUE(accepts_lasso(lim, {}, {A()}));
  EXPECT_FALSE(accepts_lasso(lim, {A()}, {B()}));
  EXPECT_FALSE(accepts_lasso(lim, {B()}, {A()}));
}

TEST(Limit, GeneralLimitOfEndsWithA) {
  // L = (a|b)*a; lim(L) = words with infinitely many a.
  Nfa nfa(ab());
  const State s0 = nfa.add_state(false);
  const State s1 = nfa.add_state(true);
  nfa.add_transition(s0, A(), s0);
  nfa.add_transition(s0, B(), s0);
  nfa.add_transition(s0, A(), s1);
  nfa.set_initial(s0);
  const Buchi lim = limit_general(nfa);
  EXPECT_TRUE(accepts_lasso(lim, {}, {A()}));
  EXPECT_TRUE(accepts_lasso(lim, {B()}, {B(), A()}));
  EXPECT_FALSE(accepts_lasso(lim, {A()}, {B()}));
}

TEST(Streett, SinglePairRequiresGoal) {
  // Two states: s0 -a-> s0, s0 -b-> s1, s1 -b-> s1. Pair: if the a-loop is
  // taken infinitely often then the b-loop must be too — unsatisfiable
  // together (different SCC); but runs staying in s1 are fair.
  Nfa nfa(ab());
  const State s0 = nfa.add_state();
  const State s1 = nfa.add_state();
  nfa.add_transition(s0, A(), s0);  // edge 0
  nfa.add_transition(s0, B(), s1);  // edge 1
  nfa.add_transition(s1, B(), s1);  // edge 2
  nfa.set_initial(s0);

  StreettAutomaton st(nfa);
  StreettPair pair{st.edge_set(), st.edge_set()};
  pair.antecedent.set(0);
  pair.goal.set(2);
  st.add_pair(std::move(pair));

  const auto lasso = find_fair_lasso(st);
  ASSERT_TRUE(lasso.has_value());
  // The fair lasso must loop in s1 (only b's in the period).
  for (const Symbol c : lasso->period) EXPECT_EQ(c, B());
}

TEST(Streett, UnsatisfiablePairs) {
  // Single state with an a-loop; pair demands: taking the a-loop infinitely
  // often requires taking a (nonexistent) goal edge.
  Nfa nfa(ab());
  const State s0 = nfa.add_state();
  nfa.add_transition(s0, A(), s0);  // edge 0
  nfa.set_initial(s0);
  StreettAutomaton st(nfa);
  StreettPair pair{st.edge_set(), st.edge_set()};
  pair.antecedent.set(0);
  st.add_pair(std::move(pair));
  EXPECT_FALSE(find_fair_lasso(st).has_value());
}

TEST(Streett, StrongFairnessPicksBothLoops) {
  // {a,b}^ω one-state system; pairs force each self-loop to recur (strong
  // transition fairness from one always-enabled state).
  Nfa nfa(ab());
  const State s0 = nfa.add_state();
  nfa.add_transition(s0, A(), s0);  // edge 0
  nfa.add_transition(s0, B(), s0);  // edge 1
  nfa.set_initial(s0);
  StreettAutomaton st(nfa);
  for (EdgeId e = 0; e < 2; ++e) {
    StreettPair pair{st.edge_set(), st.edge_set()};
    pair.antecedent.set(0);
    pair.antecedent.set(1);
    pair.goal.set(e);
    st.add_pair(std::move(pair));
  }
  const auto lasso = find_fair_lasso(st);
  ASSERT_TRUE(lasso.has_value());
  EXPECT_TRUE(std::count(lasso->period.begin(), lasso->period.end(), A()) > 0);
  EXPECT_TRUE(std::count(lasso->period.begin(), lasso->period.end(), B()) > 0);
}

TEST(OmegaExpr, PowerOfSingleWord) {
  // ({ab})^ω = (ab)^ω only.
  Nfa ab_word(ab());
  const State s0 = ab_word.add_state(false);
  const State s1 = ab_word.add_state(false);
  const State s2 = ab_word.add_state(true);
  ab_word.add_transition(s0, A(), s1);
  ab_word.add_transition(s1, B(), s2);
  ab_word.set_initial(s0);

  const Buchi power = omega_power(ab_word);
  EXPECT_TRUE(accepts_lasso(power, {}, {A(), B()}));
  EXPECT_TRUE(accepts_lasso(power, {A(), B()}, {A(), B(), A(), B()}));
  EXPECT_FALSE(accepts_lasso(power, {}, {A()}));
  EXPECT_FALSE(accepts_lasso(power, {B()}, {A(), B()}));
  EXPECT_FALSE(accepts_lasso(power, {A()}, {B(), B()}));
}

TEST(OmegaExpr, IterationMatchesGfTranslation) {
  // (Σ* a)^ω = "infinitely many a": compare against the automaton for the
  // same language built completely differently (the hand-built inf_a).
  Nfa ends_a(ab());
  const State s0 = ends_a.add_state(false);
  const State s1 = ends_a.add_state(true);
  ends_a.add_transition(s0, A(), s0);
  ends_a.add_transition(s0, B(), s0);
  ends_a.add_transition(s0, A(), s1);
  ends_a.set_initial(s0);

  Nfa epsilon(ab());
  epsilon.set_initial(epsilon.add_state(true));

  const Buchi via_expr = omega_iteration(epsilon, ends_a);
  const Buchi reference = inf_a();
  Rng rng(13);
  for (int i = 0; i < 40; ++i) {
    const Word u = random_word(rng, 0, 3);
    const Word v = random_word(rng, 1, 4);
    EXPECT_EQ(accepts_lasso(via_expr, u, v), accepts_lasso(reference, u, v))
        << "u=" << ab()->format(u) << " v=" << ab()->format(v);
  }
}

TEST(OmegaExpr, PrefixPart) {
  // b* · ({a})^ω = b^m a^ω.
  Nfa bstar(ab());
  const State s = bstar.add_state(true);
  bstar.add_transition(s, B(), s);
  bstar.set_initial(s);
  Nfa a_word(ab());
  const State a0 = a_word.add_state(false);
  const State a1 = a_word.add_state(true);
  a_word.add_transition(a0, A(), a1);
  a_word.set_initial(a0);

  const Buchi lang = omega_iteration(bstar, a_word);
  EXPECT_TRUE(accepts_lasso(lang, {}, {A()}));
  EXPECT_TRUE(accepts_lasso(lang, {B(), B()}, {A()}));
  EXPECT_FALSE(accepts_lasso(lang, {A()}, {B()}));
  EXPECT_FALSE(accepts_lasso(lang, {B()}, {A(), B()}));
}

// ---------------------------------------------------------------------------
// Property tests.

class RandomBuchiProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomBuchiProperty, DegeneralizationMatchesGeneralizedMembership) {
  // Independent oracle: mask-based generalized-Büchi membership vs the
  // counter-construction degeneralization.
  Rng rng(GetParam() * 37199 + 4);
  const std::size_t n = 2 + rng.next_below(4);
  GenBuchi gba(ab());
  for (std::size_t i = 0; i < n; ++i) gba.structure.add_state();
  for (State s = 0; s < n; ++s) {
    for (Symbol c = 0; c < 2; ++c) {
      const std::uint64_t fanout = rng.next_below(3);
      for (std::uint64_t k = 0; k < fanout; ++k) {
        gba.structure.add_transition_unique(
            s, c, static_cast<State>(rng.next_below(n)));
      }
    }
  }
  gba.structure.set_initial(static_cast<State>(rng.next_below(n)));
  const std::size_t num_sets = rng.next_below(4);  // 0..3 acceptance sets
  for (std::size_t i = 0; i < num_sets; ++i) {
    DynBitset set(n);
    for (State s = 0; s < n; ++s) {
      if (rng.chance(1, 3)) set.set(s);
    }
    gba.sets.push_back(std::move(set));
  }

  const Buchi degeneralized = degeneralize(gba);
  for (int i = 0; i < 25; ++i) {
    const Word u = random_word(rng, 0, 3);
    const Word v = random_word(rng, 1, 3);
    EXPECT_EQ(accepts_lasso_gen(gba, u, v),
              accepts_lasso(degeneralized, u, v))
        << "u=" << ab()->format(u) << " v=" << ab()->format(v)
        << " sets=" << num_sets;
  }
}

TEST_P(RandomBuchiProperty, EmptinessAlgorithmsAgree) {
  Rng rng(GetParam());
  const Buchi buchi = random_buchi(rng, 3 + rng.next_below(5));
  const bool scc = omega_empty(buchi);
  const auto ndfs = find_accepting_lasso_product({&buchi});
  EXPECT_EQ(ndfs.has_value(), !scc);
  if (ndfs) {
    EXPECT_TRUE(accepts_lasso(buchi, *ndfs));
  }
  // The same language as a two-operand product (level counter 0..2).
  const auto lasso = find_accepting_lasso_product({&buchi, &buchi});
  EXPECT_EQ(lasso.has_value(), !scc);
  if (lasso) {
    EXPECT_TRUE(accepts_lasso(buchi, *lasso));
  }
}

TEST_P(RandomBuchiProperty, ProductMembershipIsConjunction) {
  Rng rng(GetParam() * 7919 + 3);
  const Buchi x = random_buchi(rng, 2 + rng.next_below(3));
  const Buchi y = random_buchi(rng, 2 + rng.next_below(3));
  const Buchi both = intersect_buchi(x, y);
  for (int i = 0; i < 20; ++i) {
    const Word u = random_word(rng, 0, 3);
    const Word v = random_word(rng, 1, 3);
    EXPECT_EQ(accepts_lasso(both, u, v),
              accepts_lasso(x, u, v) && accepts_lasso(y, u, v))
        << "u=" << ab()->format(u) << " v=" << ab()->format(v);
  }
}

TEST_P(RandomBuchiProperty, UnionMembershipIsDisjunction) {
  Rng rng(GetParam() * 104729 + 11);
  const Buchi x = random_buchi(rng, 2 + rng.next_below(3));
  const Buchi y = random_buchi(rng, 2 + rng.next_below(3));
  const Buchi either = union_buchi(x, y);
  for (int i = 0; i < 20; ++i) {
    const Word u = random_word(rng, 0, 3);
    const Word v = random_word(rng, 1, 3);
    EXPECT_EQ(accepts_lasso(either, u, v),
              accepts_lasso(x, u, v) || accepts_lasso(y, u, v));
  }
}

TEST_P(RandomBuchiProperty, TrimPreservesOmegaLanguage) {
  Rng rng(GetParam() + 42);
  const Buchi buchi = random_buchi(rng, 3 + rng.next_below(4));
  const Buchi trimmed = trim_omega(buchi);
  for (int i = 0; i < 20; ++i) {
    const Word u = random_word(rng, 0, 3);
    const Word v = random_word(rng, 1, 3);
    EXPECT_EQ(accepts_lasso(buchi, u, v), accepts_lasso(trimmed, u, v));
  }
}

TEST_P(RandomBuchiProperty, ComplementFlipsMembership) {
  Rng rng(GetParam() + 777);
  const Buchi buchi = random_buchi(rng, 2 + rng.next_below(2));
  const Buchi comp = complement_buchi(buchi);
  // Complement and original must not intersect...
  EXPECT_TRUE(omega_empty(intersect_buchi(buchi, comp)));
  // ...and together they must cover every sampled lasso.
  for (int i = 0; i < 15; ++i) {
    const Word u = random_word(rng, 0, 2);
    const Word v = random_word(rng, 1, 3);
    EXPECT_NE(accepts_lasso(buchi, u, v), accepts_lasso(comp, u, v))
        << "u=" << ab()->format(u) << " v=" << ab()->format(v);
  }
}

TEST_P(RandomBuchiProperty, LimitConstructionsAgree) {
  Rng rng(GetParam() + 2024);
  // Random prefix-closed language: random NFA, take its prefix language.
  const std::size_t n = 2 + rng.next_below(4);
  Nfa nfa(ab());
  for (std::size_t i = 0; i < n; ++i) nfa.add_state(true);
  for (State s = 0; s < n; ++s) {
    for (Symbol c = 0; c < 2; ++c) {
      if (rng.chance(2, 3)) {
        nfa.add_transition(s, c, static_cast<State>(rng.next_below(n)));
      }
    }
  }
  nfa.set_initial(0);
  const Nfa pre = prefix_language(nfa);
  if (pre.num_states() == 0) return;  // empty language, nothing to compare

  const Buchi direct = limit_of_prefix_closed(pre);
  const Buchi via_det = limit_via_determinization(pre);
  for (int i = 0; i < 25; ++i) {
    const Word u = random_word(rng, 0, 3);
    const Word v = random_word(rng, 1, 3);
    EXPECT_EQ(accepts_lasso(direct, u, v), accepts_lasso(via_det, u, v))
        << "u=" << ab()->format(u) << " v=" << ab()->format(v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBuchiProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

// ---------------------------------------------------------------------------
// prefix_of_intersection: pre(L_ω(a) ∩ L_ω(b)) from the pair product.

/// Every state of `out` accepting, and nothing for trim_omega to remove.
void expect_trim_and_live(const Nfa& out) {
  for (State s = 0; s < out.num_states(); ++s) {
    EXPECT_TRUE(out.is_accepting(s)) << "state " << s;
  }
  EXPECT_EQ(trim_omega(Buchi::from_structure(out)).num_states(),
            out.num_states());
}

/// pre(L_ω(a) ∩ L_ω(b)) from the certificate layer's naive explicit
/// product, which shares no code with pair_product: its live states (all
/// reachable by construction), every one accepting.
Nfa explicit_prefix_of_intersection(const Buchi& a, const Buchi& b) {
  const cert::GenProduct product = cert::explicit_product({&a, &b});
  const DynBitset live = cert::gen_live(product);
  const Nfa& structure = product.structure;
  Nfa result(a.alphabet());
  std::vector<State> remap(structure.num_states(), kNoState);
  for (State s = 0; s < structure.num_states(); ++s) {
    if (live.test(s)) remap[s] = result.add_state(true);
  }
  for (const State s : structure.initial()) {
    if (live.test(s)) result.set_initial(remap[s]);
  }
  for (State s = 0; s < structure.num_states(); ++s) {
    if (!live.test(s)) continue;
    for (const Transition& t : structure.out(s)) {
      if (live.test(t.target)) {
        result.add_transition(remap[s], t.symbol, remap[t.target]);
      }
    }
  }
  return result;
}

TEST(PrefixOfIntersection, MatchesExplicitProductOnRandomPairs) {
  Rng rng(2024);
  std::size_t neither_all_accepting = 0;
  std::size_t several_initial = 0;
  std::size_t empty_intersection = 0;
  std::size_t self_loop_singletons = 0;
  for (int i = 0; i < 600; ++i) {
    const AlphabetRef sigma = random_alphabet(2 + rng.next_below(2));
    Buchi a = random_buchi(rng, 1 + rng.next_below(5), sigma);
    Buchi b = random_buchi(rng, 1 + rng.next_below(5), sigma);
    if (rng.chance(1, 3)) {
      a.set_initial(static_cast<State>(rng.next_below(a.num_states())));
      b.set_initial(static_cast<State>(rng.next_below(b.num_states())));
    }
    const Nfa out = prefix_of_intersection(a, b);
    const Nfa reference = explicit_prefix_of_intersection(a, b);
    ASSERT_TRUE(nfa_equivalent(out, reference))
        << "instance " << i << "\n" << a.to_string() << b.to_string();
    expect_trim_and_live(out);

    if (!all_accepting(a) && !all_accepting(b)) ++neither_all_accepting;
    if (a.initial().size() > 1 && b.initial().size() > 1) ++several_initial;
    if (out.initial().empty()) ++empty_intersection;
    for (State s = 0; s < out.num_states(); ++s) {
      for (const Transition& t : out.out(s)) {
        if (t.target == s) ++self_loop_singletons;
      }
    }
  }
  // The draw covers the shapes the kernel special-cases.
  EXPECT_GT(neither_all_accepting, 100u);
  EXPECT_GT(several_initial, 50u);
  EXPECT_GT(empty_intersection, 50u);
  EXPECT_GT(self_loop_singletons, 50u);
}

TEST(PairProduct, ReachablePairsMatchExplicitProductAndEdgesProject) {
  Rng rng(4242);
  for (int i = 0; i < 300; ++i) {
    const AlphabetRef sigma = random_alphabet(2 + rng.next_below(2));
    Buchi a = random_buchi(rng, 1 + rng.next_below(5), sigma);
    Buchi b = random_buchi(rng, 1 + rng.next_below(5), sigma);
    if (rng.chance(1, 3)) {
      a.set_initial(static_cast<State>(rng.next_below(a.num_states())));
      b.set_initial(static_cast<State>(rng.next_below(b.num_states())));
    }
    const PairProduct p = pair_product(a.structure(), b.structure());
    // Every builder on top of it keeps the reachable pairs, no more.
    const std::size_t reachable =
        cert::explicit_product({&a, &b}).structure.num_states();
    ASSERT_EQ(p.size(), reachable) << "instance " << i;
    EXPECT_EQ(intersect(a.structure(), b.structure()).num_states(), reachable);
    EXPECT_EQ(product_gen(a, b).structure.num_states(), reachable);

    // to_nfa keeps the edge order, and each edge projects onto its
    // left_edge.
    const Nfa nfa = p.to_nfa(sigma, true);
    ASSERT_EQ(nfa.num_transitions(), p.edges.size());
    for (State s = 0; s < p.size(); ++s) {
      const std::span<const Transition> out = nfa.out(s);
      ASSERT_EQ(out.size(), p.edge_off[s + 1] - p.edge_off[s]);
      const State left = p.left(s);
      for (std::size_t k = 0; k < out.size(); ++k) {
        const std::uint32_t e = p.edge_off[s] + static_cast<std::uint32_t>(k);
        EXPECT_EQ(out[k], p.edges[e]);
        const std::uint32_t first = a.structure().first_edge(left);
        ASSERT_GE(p.left_edge[e], first);
        ASSERT_LT(p.left_edge[e], a.structure().first_edge(left + 1));
        const Transition& ta = a.out(left)[p.left_edge[e] - first];
        EXPECT_EQ(ta.symbol, p.edges[e].symbol);
        EXPECT_EQ(ta.target, p.left(p.edges[e].target));
      }
    }

    // A Streett automaton that takes the product's table reads the same
    // edges under the same ids as one built from the Nfa.
    PairProduct moved = p;
    const StreettAutomaton flat(sigma, std::move(moved.initial),
                                std::move(moved.edge_off),
                                std::move(moved.edges));
    const StreettAutomaton from_nfa(nfa);
    ASSERT_EQ(flat.num_states(), from_nfa.num_states());
    ASSERT_EQ(flat.num_edges(), from_nfa.num_edges());
    EXPECT_EQ(flat.initial(), from_nfa.initial());
    for (State s = 0; s <= p.size(); ++s) {
      EXPECT_EQ(flat.first_edge(s), from_nfa.first_edge(s));
    }
    for (EdgeId e = 0; e < flat.num_edges(); ++e) {
      EXPECT_EQ(flat.edge(e), from_nfa.edge(e));
      EXPECT_EQ(flat.edge_source(e), from_nfa.edge_source(e));
    }
  }
}

TEST(PrefixOfIntersection, SccMeetingOneAcceptanceSetIsDead) {
  // a: one accepting state looping on a and b (L_ω(a) = Σ^ω).
  Buchi a(ab());
  a.add_state(true);
  a.add_transition(0, A(), 0);
  a.add_transition(0, B(), 0);
  a.set_initial(0);
  // b: two initial states, a non-accepting a-loop and an accepting b-loop.
  Buchi b(ab());
  b.add_state(false);
  b.add_state(true);
  b.add_transition(0, A(), 0);
  b.add_transition(1, B(), 1);
  b.set_initial(0);
  b.set_initial(1);
  // The pair (0, 0) is a self-loop SCC meeting a's acceptance set only: it
  // must be dead. (0, 1) is live, so pre(L_ω(a) ∩ L_ω(b)) = b*.
  const Nfa out = prefix_of_intersection(a, b);
  ASSERT_EQ(out.num_states(), 1u);
  expect_trim_and_live(out);
  EXPECT_TRUE(out.accepts({}));
  EXPECT_TRUE(out.accepts({B(), B()}));
  EXPECT_FALSE(out.accepts({A()}));
  EXPECT_TRUE(nfa_equivalent(out, prefix_nfa(intersect_buchi(a, b))));
}

TEST(PrefixOfIntersection, BudgetTripsInProductAndGenerousBudgetIsInert) {
  Rng rng(7);
  const AlphabetRef sigma = random_alphabet(2);
  Buchi a = random_buchi(rng, 6, sigma);
  Buchi b = random_buchi(rng, 6, sigma);
  for (State s = 0; s < 6; ++s) {
    for (Symbol c = 0; c < 2; ++c) {
      a.add_transition(s, c, (s + 1) % 6);
      b.add_transition(s, c, (s + c + 1) % 6);
    }
  }
  const Nfa unbudgeted = prefix_of_intersection(a, b);

  Budget tight;
  tight.set_max_states(2);
  try {
    (void)prefix_of_intersection(a, b, &tight);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.stage(), Stage::kProduct);
  }

  Budget generous;
  generous.set_max_states(1'000'000);
  generous.set_deadline_in(std::chrono::milliseconds(600'000));
  const Nfa budgeted = prefix_of_intersection(a, b, &generous);
  EXPECT_EQ(budgeted.to_string(), unbudgeted.to_string());
  EXPECT_GT(generous.profile()[Stage::kProduct].states_built, 2u);
  EXPECT_EQ(generous.profile()[Stage::kPreTrim].calls, 1u);
}

}  // namespace
}  // namespace rlv
