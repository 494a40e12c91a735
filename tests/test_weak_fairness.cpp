// Tests for weak (justice) vs strong transition fairness — the fairness-zoo
// distinction the paper's introduction uses to motivate relative liveness.
// The classical separating example: a transition that is enabled infinitely
// often but never *continuously* is forced by strong fairness only.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "rlv/fair/fair_check.hpp"
#include "rlv/fair/fairness.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/lasso.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/util/rng.hpp"

namespace rlv {
namespace {

/// The separating system: s0 -a-> s1, s1 -b-> s0 (a ping-pong loop), and an
/// exit s0 -c-> s2, s2 -d-> s2. The exit is enabled infinitely often on the
/// ping-pong but never continuously (s1 interrupts).
Nfa ping_pong_exit() {
  auto sigma = Alphabet::make({"a", "b", "c", "d"});
  Nfa nfa(sigma);
  const State s0 = nfa.add_state(true);
  const State s1 = nfa.add_state(true);
  const State s2 = nfa.add_state(true);
  nfa.add_transition(s0, sigma->id("a"), s1);
  nfa.add_transition(s1, sigma->id("b"), s0);
  nfa.add_transition(s0, sigma->id("c"), s2);
  nfa.add_transition(s2, sigma->id("d"), s2);
  nfa.set_initial(s0);
  return nfa;
}

TEST(WeakFairness, SeparatingExample) {
  const Nfa system_graph = ping_pong_exit();
  const Buchi system = limit_of_prefix_closed(system_graph);
  const Labeling lambda = Labeling::canonical(system_graph.alphabet());
  const Formula exit_taken = parse_ltl("F c");

  // Strong fairness forces the exit: at s0 infinitely often means c is
  // enabled infinitely often.
  const auto strong = check_fair_satisfaction(
      system, exit_taken, lambda, FairnessKind::kStrongTransition);
  EXPECT_TRUE(strong.all_fair_runs_satisfy);

  // Weak fairness does not: (ab)^ω never continuously enables c.
  const auto weak = check_fair_satisfaction(system, exit_taken, lambda,
                                            FairnessKind::kWeakTransition);
  EXPECT_FALSE(weak.all_fair_runs_satisfy);
  ASSERT_TRUE(weak.counterexample.has_value());
  // The weakly fair counterexample must be the ping-pong (c never taken).
  const Symbol c = system_graph.alphabet()->id("c");
  for (const Symbol x : weak.counterexample->period) EXPECT_NE(x, c);
  EXPECT_TRUE(accepts_lasso(system, *weak.counterexample));
}

TEST(WeakFairness, ContinuouslyEnabledIsForced) {
  // One state, two self-loops: both loops are continuously enabled, so even
  // weak fairness forces both.
  const Nfa ab = section5_ab_system();
  const Buchi system = limit_of_prefix_closed(ab);
  const Labeling lambda = Labeling::canonical(ab.alphabet());
  for (const char* f : {"G F a", "G F b"}) {
    EXPECT_TRUE(check_fair_satisfaction(system, parse_ltl(f), lambda,
                                        FairnessKind::kWeakTransition)
                    .all_fair_runs_satisfy)
        << f;
  }
}

TEST(WeakFairness, StreettPairCounts) {
  const Nfa system_graph = ping_pong_exit();
  const StreettAutomaton strong = make_fairness_streett(
      system_graph, FairnessKind::kStrongTransition);
  const StreettAutomaton weak =
      make_fairness_streett(system_graph, FairnessKind::kWeakTransition);
  EXPECT_EQ(strong.pairs().size(), system_graph.num_transitions());
  EXPECT_EQ(weak.pairs().size(), system_graph.num_transitions());
  // The weak pairs have the all-edges antecedent.
  for (const StreettPair& pair : weak.pairs()) {
    EXPECT_EQ(pair.antecedent.count(), weak.num_edges());
  }
}

class WeakFairnessProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeakFairnessProperty, WeakVerdictImpliesStrongVerdict) {
  // Strongly fair runs are a subset of weakly fair runs, so "all weakly
  // fair runs satisfy f" implies "all strongly fair runs satisfy f".
  Rng rng(GetParam() * 48611 + 29);
  auto sigma = random_alphabet(2);
  const Nfa ts = random_transition_system(rng, 2 + rng.next_below(3), sigma);
  if (ts.num_states() == 0) return;
  const Buchi system = limit_of_prefix_closed(ts);
  const Labeling lambda = Labeling::canonical(sigma);
  const Formula f =
      random_formula(rng, {sigma->name(0), sigma->name(1)}, 3);

  const bool weak = check_fair_satisfaction(system, f, lambda,
                                            FairnessKind::kWeakTransition)
                        .all_fair_runs_satisfy;
  const bool strong = check_fair_satisfaction(
                          system, f, lambda, FairnessKind::kStrongTransition)
                          .all_fair_runs_satisfy;
  if (weak) {
    EXPECT_TRUE(strong) << f.to_string();
  }
}

TEST_P(WeakFairnessProperty, CounterexamplesAreGenuineBehaviors) {
  Rng rng(GetParam() * 96293 + 83);
  auto sigma = random_alphabet(2);
  const Nfa ts = random_transition_system(rng, 2 + rng.next_below(3), sigma);
  if (ts.num_states() == 0) return;
  const Buchi system = limit_of_prefix_closed(ts);
  const Labeling lambda = Labeling::canonical(sigma);
  const Formula f =
      random_formula(rng, {sigma->name(0), sigma->name(1)}, 3);

  for (const FairnessKind kind :
       {FairnessKind::kStrongTransition, FairnessKind::kWeakTransition}) {
    const auto res = check_fair_satisfaction(system, f, lambda, kind);
    if (res.counterexample) {
      EXPECT_TRUE(accepts_lasso(system, *res.counterexample))
          << f.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeakFairnessProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

// ---------------------------------------------------------------------------
// Process fairness (coarse groups).

TEST(ProcessFairness, PerProcessGroupsForceTheExit) {
  // Processes: P1 = {a, b} (ping-pong), P2 = {c, d} (exit). P2 is enabled
  // infinitely often on the ping-pong, so process fairness forces it to
  // act: every fair run ends in the d-loop.
  const Nfa system = ping_pong_exit();
  StreettAutomaton streett(system);
  // Build explicit groups: P1 = a ∪ b edges, P2 = c ∪ d edges.
  const auto by_letter = group_edges_by_prefix(streett, {"a", "b", "c", "d"});
  DynBitset p1 = by_letter[0];
  p1 |= by_letter[1];
  DynBitset p2 = by_letter[2];
  p2 |= by_letter[3];
  add_process_fairness_pairs(streett, {p1, p2});

  const auto lasso = find_fair_lasso(streett);
  ASSERT_TRUE(lasso.has_value());
  const Symbol d = system.alphabet()->id("d");
  for (const Symbol s : lasso->period) EXPECT_EQ(s, d);
}

TEST(ProcessFairness, OneCoarseGroupAllowsThePingPong) {
  // With every edge in a single process, the ping-pong is fair (the process
  // acts at every step): process fairness is strictly coarser than strong
  // transition fairness, which would force the exit.
  const Nfa system = ping_pong_exit();
  StreettAutomaton streett(system);
  DynBitset all = streett.edge_set();
  for (EdgeId e = 0; e < streett.num_edges(); ++e) all.set(e);
  add_process_fairness_pairs(streett, {all});

  const auto lasso = find_fair_lasso(streett);
  ASSERT_TRUE(lasso.has_value());
  // The witness search finds the first fair SCC — the ping-pong — whose
  // period avoids c entirely.
  const Symbol c = system.alphabet()->id("c");
  for (const Symbol s : lasso->period) EXPECT_NE(s, c);
}

TEST(ProcessFairness, GroupingByPrefix) {
  const Nfa system = ping_pong_exit();
  const StreettAutomaton streett(system);
  const auto groups = group_edges_by_prefix(streett, {"a", "c", "nosuch"});
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].count(), 1u);
  EXPECT_EQ(groups[1].count(), 1u);
  EXPECT_TRUE(groups[2].none());
}

// ---------------------------------------------------------------------------
// The fair checks hand the Streett search their fairness pairs as a
// refiner. Reference: the same product built from scratch, with the pairs
// of a Streett automaton over the system's own edges (fairness.hpp) stored
// explicitly and lifted to the product edges that project to their system
// edges, searched by the pair-based find_fair_lasso.

bool stored_pairs_find_fair_violation(const Buchi& system,
                                      const Buchi& negated,
                                      const StreettAutomaton& fairness) {
  // Reachable product of the system with ¬P, keeping for each product edge
  // the system edge it projects to.
  const Nfa& sys = system.structure();
  Nfa product(system.alphabet());
  std::vector<std::pair<State, State>> pairs;
  std::vector<std::vector<std::pair<Transition, std::uint32_t>>> edges_of;
  std::map<std::pair<State, State>, State> ids;
  const auto intern = [&](State p, State q) {
    const auto [it, fresh] = ids.emplace(std::make_pair(p, q), 0);
    if (fresh) {
      it->second = product.add_state(true);
      pairs.emplace_back(p, q);
      edges_of.emplace_back();
    }
    return it->second;
  };
  for (const State p : system.initial()) {
    for (const State q : negated.initial()) product.set_initial(intern(p, q));
  }
  for (State id = 0; id < pairs.size(); ++id) {
    const auto [p, q] = pairs[id];
    for (std::uint32_t e = sys.first_edge(p); e < sys.first_edge(p + 1); ++e) {
      const Transition ts = sys.edges()[e];
      for (const Transition& tn : negated.out(q)) {
        if (tn.symbol != ts.symbol) continue;
        const State to = intern(ts.target, tn.target);
        product.add_transition(id, ts.symbol, to);
        edges_of[id].push_back({Transition{ts.symbol, to}, e});
      }
    }
  }
  // Flat edge ids follow Nfa::out, which groups a state's edges by symbol
  // and keeps insertion order within a symbol.
  std::vector<std::uint32_t> flat_sys_edge;
  std::vector<bool> neg_accepting;
  for (auto& edges : edges_of) {
    std::stable_sort(edges.begin(), edges.end(),
                     [](const auto& x, const auto& y) {
                       return x.first.symbol < y.first.symbol;
                     });
    for (const auto& [t, e] : edges) {
      flat_sys_edge.push_back(e);
      neg_accepting.push_back(negated.is_accepting(pairs[t.target].second));
    }
  }

  StreettAutomaton streett(product);
  const std::size_t m = streett.num_edges();
  for (const StreettPair& lift : fairness.pairs()) {
    StreettPair pair{streett.edge_set(), streett.edge_set()};
    for (EdgeId pe = 0; pe < m; ++pe) {
      if (lift.antecedent.test(flat_sys_edge[pe])) pair.antecedent.set(pe);
      if (lift.goal.test(flat_sys_edge[pe])) pair.goal.set(pe);
    }
    streett.add_pair(std::move(pair));
  }
  StreettPair buchi{streett.edge_set(), streett.edge_set()};
  for (EdgeId pe = 0; pe < m; ++pe) {
    buchi.antecedent.set(pe);
    if (neg_accepting[pe]) buchi.goal.set(pe);
  }
  streett.add_pair(std::move(buchi));
  return find_fair_lasso(streett).has_value();
}

/// The stored-pair reference for process fairness: one pair per prefix,
/// over the system's edges (add_process_fairness_pairs).
bool stored_process_pairs_find_fair_violation(
    const Buchi& system, const Buchi& negated,
    const std::vector<std::string>& prefixes) {
  StreettAutomaton fairness(system.structure());
  add_process_fairness_pairs(fairness,
                             group_edges_by_prefix(fairness, prefixes));
  return stored_pairs_find_fair_violation(system, negated, fairness);
}

TEST(FairCheck, RefinerMatchesExplicitPairs) {
  Rng rng(9001);
  std::size_t violated[2] = {0, 0};
  for (int i = 0; i < 300; ++i) {
    const AlphabetRef sigma = random_alphabet(2 + rng.next_below(2));
    const Nfa ts = random_transition_system(rng, 2 + rng.next_below(4), sigma);
    const Buchi system = limit_of_prefix_closed(ts);
    const Labeling lambda = Labeling::canonical(sigma);
    std::vector<std::string> atoms;
    for (Symbol c = 0; c < sigma->size(); ++c) atoms.push_back(sigma->name(c));
    const Formula f = random_formula(rng, atoms, 3);
    const Buchi negated = translate_ltl_negated(f, lambda);
    for (const FairnessKind kind :
         {FairnessKind::kStrongTransition, FairnessKind::kWeakTransition}) {
      const FairCheckResult res =
          check_fair_satisfaction_negated(system, negated, kind);
      const bool reference = stored_pairs_find_fair_violation(
          system, negated, make_fairness_streett(system.structure(), kind));
      ASSERT_EQ(!res.all_fair_runs_satisfy, reference)
          << f.to_string() << (kind == FairnessKind::kWeakTransition
                                   ? " (weak)"
                                   : " (strong)");
      if (reference) {
        ++violated[kind == FairnessKind::kWeakTransition];
        ASSERT_TRUE(res.counterexample.has_value());
        EXPECT_TRUE(accepts_lasso(system, res.counterexample->prefix,
                                  res.counterexample->period));
        EXPECT_TRUE(accepts_lasso(negated, res.counterexample->prefix,
                                  res.counterexample->period));
      }
    }
  }
  EXPECT_GT(violated[0], 20u);
  EXPECT_GT(violated[1], violated[0]);
}

TEST(FairCheck, ProcessThatNegatedPropertyBlocksMustStillAct) {
  // One state with a- and b-loops; P = F a. Every run violating P takes
  // only b, so ¬P never lets the always-enabled process {a} act: b^ω is not
  // process-fair and every process-fair run satisfies P, as every strongly
  // transition-fair run does.
  const Nfa ab = section5_ab_system();
  const Buchi system = limit_of_prefix_closed(ab);
  const Labeling lambda = Labeling::canonical(ab.alphabet());
  const Formula f = parse_ltl("F a");
  EXPECT_TRUE(check_fair_satisfaction(system, f, lambda).all_fair_runs_satisfy);
  const FairCheckResult process =
      check_process_fair_satisfaction(system, f, lambda, {"a", "b"});
  EXPECT_TRUE(process.all_fair_runs_satisfy);
  EXPECT_FALSE(process.counterexample.has_value());
}

TEST(FairCheck, SingletonProcessesEqualStrongTransitionFairness) {
  // Each edge of a random transition system gets its own fixed-width action
  // name, so no name is a prefix of another and one prefix per action makes
  // every process a single transition. Process fairness with singleton
  // groups is strong transition fairness (fairness.hpp), so the refiner's
  // process-fair and strong verdicts must both equal the search over the
  // stored strong transition pairs.
  Rng rng(6007);
  std::size_t violated = 0;
  for (int i = 0; i < 200; ++i) {
    const Nfa shape = random_transition_system(rng, 2 + rng.next_below(4),
                                               random_alphabet(2));
    std::vector<std::string> names;
    for (std::size_t k = 0; k < shape.num_transitions(); ++k) {
      names.push_back("e" + std::string(k < 10 ? "0" : "") +
                      std::to_string(k));
    }
    const AlphabetRef sigma = Alphabet::make(names);
    Nfa ts(sigma);
    for (State s = 0; s < shape.num_states(); ++s) ts.add_state(true);
    for (const State s : shape.initial()) ts.set_initial(s);
    Symbol next = 0;
    for (State s = 0; s < shape.num_states(); ++s) {
      for (const Transition& t : shape.out(s)) {
        ts.add_transition(s, next++, t.target);
      }
    }
    const Buchi system = limit_of_prefix_closed(ts);
    const Labeling lambda = Labeling::canonical(sigma);
    const Formula f = random_formula(rng, names, 3);
    const Buchi negated = translate_ltl_negated(f, lambda);

    const bool reference = stored_pairs_find_fair_violation(
        system, negated,
        make_fairness_streett(system.structure(),
                              FairnessKind::kStrongTransition));
    const FairCheckResult strong = check_fair_satisfaction(
        system, f, lambda, FairnessKind::kStrongTransition);
    const FairCheckResult process =
        check_process_fair_satisfaction(system, f, lambda, names);
    ASSERT_EQ(!process.all_fair_runs_satisfy, reference)
        << "instance " << i << ": " << f.to_string();
    ASSERT_EQ(!strong.all_fair_runs_satisfy, reference)
        << "instance " << i << ": " << f.to_string();
    if (reference) {
      ++violated;
      ASSERT_TRUE(process.counterexample.has_value());
      EXPECT_TRUE(accepts_lasso(system, *process.counterexample));
      EXPECT_TRUE(accepts_lasso(negated, *process.counterexample));
    }
  }
  EXPECT_GT(violated, 20u);
}

TEST(FairCheck, OverlappingProcessesMatchStoredPairs) {
  // Prefixes nest ("p0" is a prefix of "p0a"), so an edge can sit in two
  // processes at once, and some actions match no prefix. The refiner's
  // process-fair verdict must equal the search over one stored pair per
  // process, and each counterexample must be a system run violating f.
  const AlphabetRef sigma = Alphabet::make({"p0a", "p0b", "p1a", "q"});
  const std::vector<std::string> pool = {"p", "p0", "p0a", "p0b", "p1",
                                         "p1a", "q"};
  std::vector<std::string> atoms;
  for (Symbol c = 0; c < sigma->size(); ++c) atoms.push_back(sigma->name(c));
  Rng rng(4201);
  std::size_t violated = 0;
  std::size_t held = 0;
  for (int i = 0; i < 300; ++i) {
    const Nfa ts = random_transition_system(rng, 2 + rng.next_below(4), sigma);
    const Buchi system = limit_of_prefix_closed(ts);
    const Labeling lambda = Labeling::canonical(sigma);
    const Formula f = random_formula(rng, atoms, 3);
    std::vector<std::string> prefixes = {"p0", "p0a"};
    for (const std::string& p : pool) {
      if (rng.chance(1, 3)) prefixes.push_back(p);
    }

    const FairCheckResult process =
        check_process_fair_satisfaction(system, f, lambda, prefixes);
    const Buchi negated = translate_ltl_negated(f, lambda);
    const bool reference =
        stored_process_pairs_find_fair_violation(system, negated, prefixes);
    ASSERT_EQ(!process.all_fair_runs_satisfy, reference)
        << "instance " << i << ": " << f.to_string();
    if (reference) {
      ++violated;
      ASSERT_TRUE(process.counterexample.has_value());
      EXPECT_TRUE(accepts_lasso(system, *process.counterexample));
      EXPECT_TRUE(accepts_lasso(negated, *process.counterexample));
    } else {
      ++held;
    }
  }
  EXPECT_GT(violated, 20u);
  EXPECT_GT(held, 20u);
}

}  // namespace
}  // namespace rlv
