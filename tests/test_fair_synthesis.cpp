// Tests for fairness machinery and Theorem 5.1 (experiments E6/E9):
// strong-fairness Streett encoding, fair model checking, the Section 5
// counterexample ({a,b}^ω vs ◇(a ∧ Xa)), the synthesis construction, and
// the end-to-end property: whenever P is relative liveness of a transition
// system, the synthesized implementation has the same language and all its
// strongly fair runs satisfy P.

#include <gtest/gtest.h>

#include <algorithm>

#include "rlv/core/fair_synthesis.hpp"
#include "rlv/core/relative.hpp"
#include "rlv/fair/fair_check.hpp"
#include "rlv/fair/fairness.hpp"
#include "rlv/fair/simulate.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/ltl/eval.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/omega/lasso.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/util/rng.hpp"

namespace rlv {
namespace {

Buchi fig2_limit() { return limit_of_prefix_closed(figure2_system()); }
Buchi fig3_limit() { return limit_of_prefix_closed(figure3_system()); }

TEST(FairCheck, Figure2FairRunsProduceResults) {
  // Under strong transition fairness the correct server always eventually
  // answers with a result — exactly what the fairness hypothesis was for.
  const Buchi system = fig2_limit();
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const auto res =
      check_fair_satisfaction(system, parse_ltl("G F result"), lambda);
  EXPECT_TRUE(res.all_fair_runs_satisfy);
}

TEST(FairCheck, Figure3HasFairViolations) {
  // No fairness notion repairs the buggy server (the paper's point about
  // Figure 3): a fair run can lock the resource forever.
  const Buchi system = fig3_limit();
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Formula f = parse_ltl("G F result");
  const auto res = check_fair_satisfaction(system, f, lambda);
  EXPECT_FALSE(res.all_fair_runs_satisfy);
  ASSERT_TRUE(res.counterexample.has_value());
  const Lasso& x = *res.counterexample;
  // The counterexample is a behavior of the system violating the property.
  EXPECT_TRUE(accepts_lasso(system, x));
  EXPECT_FALSE(eval_ltl(f, x.prefix, x.period, lambda));
}

TEST(FairCheck, Section5FairnessAloneIsNotEnough) {
  // {a,b}^ω on the minimal (one-state) automaton: strong fairness does NOT
  // give ◇(a ∧ Xa) — the paper's Section 5 example.
  const Buchi system = limit_of_prefix_closed(section5_ab_system());
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Formula f = parse_ltl("F(a && X a)");

  // It *is* a relative liveness property...
  EXPECT_TRUE(relative_liveness(system, f, lambda).holds);
  // ...but fairness on the minimal automaton does not realize it: (ab)^ω is
  // strongly fair and avoids aa forever.
  const auto res = check_fair_satisfaction(system, f, lambda);
  EXPECT_FALSE(res.all_fair_runs_satisfy);
}

TEST(Synthesis, Section5AddsStateAndWorks) {
  const Buchi system = limit_of_prefix_closed(section5_ab_system());
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Formula f = parse_ltl("F(a && X a)");

  const FairImplementation impl =
      synthesize_fair_implementation(system, f, lambda);
  // Same ω-language (Theorem 5.1's first guarantee)...
  EXPECT_TRUE(same_limit_closed_language(system, impl.system));
  // ...more states than the minimal automaton (the paper's observation
  // that extra state information is necessary)...
  EXPECT_GT(impl.system.num_states(), system.num_states());
  // ...and under strong fairness every run satisfies the property.
  const auto res = check_fair_satisfaction(impl.system, f, lambda);
  EXPECT_TRUE(res.all_fair_runs_satisfy);
}

TEST(Synthesis, Figure2BoxDiamondResult) {
  const Buchi system = fig2_limit();
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Formula f = parse_ltl("G F result");

  const FairImplementation impl =
      synthesize_fair_implementation(system, f, lambda);
  EXPECT_TRUE(same_limit_closed_language(system, impl.system));
  EXPECT_TRUE(
      check_fair_satisfaction(impl.system, f, lambda).all_fair_runs_satisfy);
}

TEST(Fairness, StreettEncodingCountsPairs) {
  const Nfa structure = section5_ab_system();
  const StreettAutomaton st = make_fairness_streett(structure);
  EXPECT_EQ(st.pairs().size(), structure.num_transitions());
  EXPECT_EQ(st.num_edges(), structure.num_transitions());
}

TEST(Simulate, FairRunsHitAllLoops) {
  // On {a,b}^ω the fair scheduler must alternate between both self-loops.
  const Nfa structure = section5_ab_system();
  SimulationOptions options;
  options.steps = 100;
  const Word run = simulate_fair_run(structure, options);
  ASSERT_EQ(run.size(), 100u);
  const Symbol a = structure.alphabet()->id("a");
  const Symbol b = structure.alphabet()->id("b");
  EXPECT_EQ(std::count(run.begin(), run.end(), a), 50);
  EXPECT_EQ(std::count(run.begin(), run.end(), b), 50);
}

TEST(Simulate, SynthesizedServerProducesResults) {
  const Buchi system = fig2_limit();
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const FairImplementation impl =
      synthesize_fair_implementation(system, parse_ltl("G F result"), lambda);
  SimulationOptions options;
  options.steps = 400;
  options.seed = 3;
  const Word run = simulate_fair_run(impl.system.structure(), options);
  const Symbol result = system.alphabet()->id("result");
  EXPECT_GT(std::count(run.begin(), run.end(), result), 10);
}

// ---------------------------------------------------------------------------
// End-to-end Theorem 5.1 property test.

class SynthesisProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynthesisProperty, Theorem51EndToEnd) {
  Rng rng(GetParam() * 2246822519u + 41);
  auto sigma = random_alphabet(2);
  const Nfa ts = random_transition_system(rng, 2 + rng.next_below(3), sigma);
  if (ts.num_states() == 0) return;
  const Buchi system = limit_of_prefix_closed(ts);
  const Labeling lambda = Labeling::canonical(sigma);
  const Formula f =
      random_formula(rng, {sigma->name(0), sigma->name(1)}, 3);

  if (!relative_liveness(system, f, lambda).holds) return;

  const FairImplementation impl =
      synthesize_fair_implementation(system, f, lambda);
  EXPECT_TRUE(same_limit_closed_language(system, impl.system))
      << f.to_string();
  EXPECT_TRUE(
      check_fair_satisfaction(impl.system, f, lambda).all_fair_runs_satisfy)
      << f.to_string();
}

TEST_P(SynthesisProperty, NonRelativeLivenessHasFairViolationSomewhere) {
  // Sanity complement: if P is NOT relative liveness, no transition system
  // with the same language can make all fair runs satisfy it — check at
  // least that the synthesized automaton does not (its language misses the
  // doomed prefixes, so the language test must fail instead).
  Rng rng(GetParam() * 179426549 + 5);
  auto sigma = random_alphabet(2);
  const Nfa ts = random_transition_system(rng, 2 + rng.next_below(3), sigma);
  if (ts.num_states() == 0) return;
  const Buchi system = limit_of_prefix_closed(ts);
  const Labeling lambda = Labeling::canonical(sigma);
  const Formula f =
      random_formula(rng, {sigma->name(0), sigma->name(1)}, 3);

  if (relative_liveness(system, f, lambda).holds) return;

  const FairImplementation impl =
      synthesize_fair_implementation(system, f, lambda);
  EXPECT_FALSE(same_limit_closed_language(system, impl.system))
      << f.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesisProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace rlv
