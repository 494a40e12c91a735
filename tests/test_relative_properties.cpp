// Tests for the core relative liveness / relative safety machinery:
// Definitions 4.1/4.2 via Lemmas 4.3/4.4, Theorem 4.7 (satisfaction =
// relative liveness ∧ relative safety), machine closure (Definition 4.6),
// and the Cantor-topology view (Lemmas 4.9/4.10, Definition 4.8).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rlv/cert/certificate.hpp"

#include "rlv/core/machine_closure.hpp"
#include "rlv/core/relative.hpp"
#include "rlv/core/topology.hpp"
#include "rlv/engine/engine.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/io/format.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/lang/quotient.hpp"
#include "rlv/ltl/eval.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/omega/lasso.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/emptiness.hpp"
#include "rlv/omega/product.hpp"
#include "rlv/util/rng.hpp"

namespace rlv {
namespace {

/// lim of the Figure 2 system as a Büchi automaton.
Buchi fig2_limit() { return limit_of_prefix_closed(figure2_system()); }
Buchi fig3_limit() { return limit_of_prefix_closed(figure3_system()); }

TEST(RelativeLiveness, BoxDiamondResultOnFigure2) {
  const Buchi system = fig2_limit();
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Formula f = parse_ltl("G F result");

  // Not classically satisfied: lock (request no reject)^ω is a behavior.
  EXPECT_FALSE(satisfies(system, f, lambda).holds);
  // But it is a relative liveness property (the paper's Section 2 claim).
  EXPECT_TRUE(relative_liveness(system, f, lambda).holds);
  // And not a relative safety property (otherwise Thm 4.7 would force
  // satisfaction).
  EXPECT_FALSE(relative_safety(system, f, lambda).holds);
}

TEST(RelativeLiveness, FailsOnFigure3) {
  const Buchi system = fig3_limit();
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Formula f = parse_ltl("G F result");

  const auto res = relative_liveness(system, f, lambda);
  EXPECT_FALSE(res.holds);
  ASSERT_TRUE(res.violating_prefix.has_value());
  // The violating prefix is a real behavior prefix...
  EXPECT_TRUE(figure3_system().accepts(*res.violating_prefix));
  // ...from which no continuation inside the system satisfies GF result:
  // verified against the definition-level probe via the product automaton.
  const Buchi property = translate_ltl(f, lambda);
  const Buchi both = intersect_buchi(system, property);
  const Nfa advanced =
      left_quotient(prefix_nfa(both), *res.violating_prefix);
  EXPECT_TRUE(is_empty(advanced));
}

TEST(RelativeLiveness, BothAlgorithmsAgreeOnPaperExamples) {
  const Formula f = parse_ltl("G F result");
  for (const bool buggy : {false, true}) {
    const Buchi system = buggy ? fig3_limit() : fig2_limit();
    const Labeling lambda = Labeling::canonical(system.alphabet());
    const bool subset =
        is_included(prefix_nfa(system),
                    prefix_of_intersection(system, translate_ltl(f, lambda)),
                    InclusionAlgorithm::kSubset);
    const bool antichain = relative_liveness(system, f, lambda).holds;
    EXPECT_EQ(subset, antichain);
    EXPECT_EQ(subset, !buggy);
  }
}

TEST(RelativeSafety, NeverYesIsRelativeSafetyButNotLiveness) {
  const Buchi system = fig2_limit();
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Formula f = parse_ltl("G !yes");

  EXPECT_TRUE(relative_safety(system, f, lambda).holds);
  EXPECT_FALSE(relative_liveness(system, f, lambda).holds);
  EXPECT_FALSE(satisfies(system, f, lambda).holds);
}

TEST(RelativeSafety, CounterexampleIsGenuine) {
  const Buchi system = fig2_limit();
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Formula f = parse_ltl("G F result");

  const auto res = relative_safety(system, f, lambda);
  ASSERT_FALSE(res.holds);
  ASSERT_TRUE(res.counterexample.has_value());
  const Lasso& x = *res.counterexample;
  // x ∈ L_ω and x ∉ P.
  EXPECT_TRUE(accepts_lasso(system, x));
  EXPECT_FALSE(eval_ltl(f, x.prefix, x.period, lambda));
}

TEST(Satisfaction, PositiveCase) {
  // Figure 2 always satisfies: every request is preceded by... simpler:
  // G(result -> X true) trivially, and the real check: G(yes -> F result)?
  // After yes the server is in `ok`; the only visible next server step is
  // result, but lock/free may interleave — F result still needs fairness.
  // Use a genuinely satisfied property instead: G(result -> !X result)
  // (two results never happen back-to-back: result leads to idle).
  const Buchi system = fig2_limit();
  const Labeling lambda = Labeling::canonical(system.alphabet());
  EXPECT_TRUE(satisfies(system, parse_ltl("G(result -> !(X result))"), lambda).holds);
  EXPECT_FALSE(satisfies(system, parse_ltl("G(yes -> F result)"), lambda).holds);
  EXPECT_TRUE(relative_liveness(system, parse_ltl("G(yes -> F result)"),
                                lambda)
                  .holds);
}

TEST(MachineClosure, EquivalentToRelativeLiveness) {
  // Paper remark after Thm 4.5: P is RL of L ⟺ (L, P ∩ L) machine closed.
  const Buchi system = fig2_limit();
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Buchi good = translate_ltl(parse_ltl("G F result"), lambda);
  EXPECT_TRUE(is_machine_closed(system, intersect_buchi(system, good)));

  const Buchi bad_sys = fig3_limit();
  const Labeling lambda3 = Labeling::canonical(bad_sys.alphabet());
  const Buchi good3 = translate_ltl(parse_ltl("G F result"), lambda3);
  EXPECT_FALSE(is_machine_closed(bad_sys, intersect_buchi(bad_sys, good3)));
}

TEST(Topology, CantorMetric) {
  auto sigma = Alphabet::make({"a", "b"});
  const Symbol a = sigma->id("a");
  const Symbol b = sigma->id("b");
  const Lasso x{{a}, {b}};            // a b^ω
  const Lasso y{{a, b}, {b}};         // a b^ω (same word, shifted)
  const Lasso z{{a, b, b, a}, {b}};   // a b b a b^ω
  EXPECT_EQ(cantor_distance(x, y), 0.0);
  EXPECT_EQ(common_prefix_length(x, z), 3u);
  EXPECT_DOUBLE_EQ(cantor_distance(x, z), 0.25);
  // Symmetry and identity of indiscernibles on samples.
  EXPECT_DOUBLE_EQ(cantor_distance(z, x), cantor_distance(x, z));
}

TEST(Topology, DenseAndClosedWrappers) {
  const Buchi system = fig2_limit();
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Buchi live_prop = translate_ltl(parse_ltl("G F result"), lambda);
  const Buchi safe_prop = translate_ltl(parse_ltl("G !yes"), lambda);
  EXPECT_TRUE(is_dense_in(live_prop, system));     // Lemma 4.9
  EXPECT_FALSE(is_dense_in(safe_prop, system));
  EXPECT_TRUE(is_closed_in(safe_prop, system));    // Lemma 4.10
  EXPECT_FALSE(is_closed_in(live_prop, system));
}

TEST(Topology, DefinitionLevelProbeMatchesLemma43) {
  const Buchi system = fig2_limit();
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Buchi prop = translate_ltl(parse_ltl("G F result"), lambda);
  EXPECT_TRUE(relative_liveness_by_definition(system, prop, 4));

  const Buchi bad_sys = fig3_limit();
  const Labeling lambda3 = Labeling::canonical(bad_sys.alphabet());
  const Buchi prop3 = translate_ltl(parse_ltl("G F result"), lambda3);
  EXPECT_FALSE(relative_liveness_by_definition(bad_sys, prop3, 4));
}

// ---------------------------------------------------------------------------
// Property tests: Theorem 4.7 and cross-validation of the two relative
// safety implementations.

class RelativeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RelativeProperty, Theorem47Decomposition) {
  Rng rng(GetParam() * 48271 + 11);
  auto sigma = random_alphabet(2);
  const Nfa ts = random_transition_system(rng, 2 + rng.next_below(4), sigma);
  if (ts.num_states() == 0) return;
  const Buchi system = limit_of_prefix_closed(ts);
  const Labeling lambda = Labeling::canonical(sigma);
  const Formula f =
      random_formula(rng, {sigma->name(0), sigma->name(1)}, 3);

  const bool sat = satisfies(system, f, lambda).holds;
  const bool rl = relative_liveness(system, f, lambda).holds;
  const bool rs = relative_safety(system, f, lambda).holds;
  EXPECT_EQ(sat, rl && rs) << f.to_string();
}

TEST_P(RelativeProperty, MachineClosureMatchesRelativeLiveness) {
  Rng rng(GetParam() * 16807 + 23);
  auto sigma = random_alphabet(2);
  const Nfa ts = random_transition_system(rng, 2 + rng.next_below(4), sigma);
  if (ts.num_states() == 0) return;
  const Buchi system = limit_of_prefix_closed(ts);
  const Labeling lambda = Labeling::canonical(sigma);
  const Formula f =
      random_formula(rng, {sigma->name(0), sigma->name(1)}, 3);
  const Buchi prop = translate_ltl(f, lambda);

  EXPECT_EQ(relative_liveness(system, prop).holds,
            is_machine_closed(system, intersect_buchi(system, prop)))
      << f.to_string();
}

TEST_P(RelativeProperty, SafetyFlavorsAgree) {
  // Formula route vs automaton route (rank-based complementation).
  Rng rng(GetParam() * 69621 + 31);
  auto sigma = random_alphabet(2);
  const Nfa ts = random_transition_system(rng, 2 + rng.next_below(3), sigma);
  if (ts.num_states() == 0) return;
  const Buchi system = limit_of_prefix_closed(ts);
  const Labeling lambda = Labeling::canonical(sigma);
  // Keep formulas tiny: the rank construction explodes quickly.
  const Formula f =
      random_formula(rng, {sigma->name(0), sigma->name(1)}, 2);
  const Buchi prop = translate_ltl(f, lambda);
  if (prop.num_states() > 6) return;

  EXPECT_EQ(relative_safety(system, f, lambda).holds,
            relative_safety(system, prop).holds)
      << f.to_string();
}

TEST_P(RelativeProperty, LivenessFlavorsAgree) {
  Rng rng(GetParam() * 925 + 7);
  auto sigma = random_alphabet(2);
  const Nfa ts = random_transition_system(rng, 2 + rng.next_below(4), sigma);
  if (ts.num_states() == 0) return;
  const Buchi system = limit_of_prefix_closed(ts);
  const Labeling lambda = Labeling::canonical(sigma);
  const Formula f =
      random_formula(rng, {sigma->name(0), sigma->name(1)}, 3);
  const Buchi prop = translate_ltl(f, lambda);

  EXPECT_EQ(relative_liveness(system, f, lambda).holds,
            relative_liveness(system, prop).holds)
      << f.to_string();
}

TEST_P(RelativeProperty, DefinitionProbeNeverContradictsChecker) {
  Rng rng(GetParam() * 7 + 3);
  auto sigma = random_alphabet(2);
  const Nfa ts = random_transition_system(rng, 2 + rng.next_below(3), sigma);
  if (ts.num_states() == 0) return;
  const Buchi system = limit_of_prefix_closed(ts);
  const Labeling lambda = Labeling::canonical(sigma);
  const Formula f =
      random_formula(rng, {sigma->name(0), sigma->name(1)}, 2);
  const Buchi prop = translate_ltl(f, lambda);

  const bool checker = relative_liveness(system, prop).holds;
  const bool probe = relative_liveness_by_definition(system, prop, 4);
  // The probe only examines prefixes up to length 4, so "checker false"
  // may escape it — but "checker true" must never be refuted by the probe.
  if (checker) {
    EXPECT_TRUE(probe) << f.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelativeProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

// ---------------------------------------------------------------------------
// The Lemma 4.4 operand rule: an all-accepting system is limit-closed, so
// lim(pre(L_ω ∩ P)) ⊆ L_ω and the search drops the L_ω operand; any other
// system keeps it.

TEST(RelativeSafetyOperands, TwoOperandSearchMatchesThreeOperandReference) {
  Rng rng(4404);
  std::size_t violations = 0;
  for (int i = 0; i < 320; ++i) {
    const AlphabetRef sigma = random_alphabet(2 + rng.next_below(2));
    const Nfa ts = random_transition_system(rng, 2 + rng.next_below(5), sigma);
    const Buchi system = limit_of_prefix_closed(ts);
    ASSERT_TRUE(all_accepting(system));
    const Labeling lambda = Labeling::canonical(sigma);
    std::vector<std::string> atoms;
    for (Symbol c = 0; c < sigma->size(); ++c) atoms.push_back(sigma->name(c));
    const Formula f = random_formula(rng, atoms, 3);
    const Buchi property = translate_ltl(f, lambda);
    const Buchi negated = translate_ltl_negated(f, lambda);
    const Buchi closure =
        Buchi::from_structure(prefix_of_intersection(system, property));

    const auto two = find_accepting_lasso_product({&closure, &negated});
    const auto three =
        find_accepting_lasso_product({&system, &closure, &negated});
    ASSERT_EQ(two.has_value(), three.has_value()) << f.to_string();
    const RelativeSafetyResult rs = relative_safety(system, f, lambda);
    EXPECT_EQ(rs.holds, !three.has_value()) << f.to_string();
    if (two) {
      ++violations;
      const cert::Validation v =
          cert::check_safety_lasso(*two, system, property, f, lambda);
      EXPECT_TRUE(v.valid) << f.to_string() << ": " << v.reason;
    }
  }
  EXPECT_GT(violations, 10u);
}

TEST(RelativeSafetyOperands, NonLimitClosedSystemKeepsLOmegaOperand) {
  // L_ω = G F a over {a, b}: not limit-closed (a*b^ω has every prefix in
  // pre(L_ω) but is not in L_ω). With P = G F a, L_ω ⊆ P, so by Thm 4.7
  // P is a relative safety property of L_ω.
  const AlphabetRef sigma = Alphabet::make({"a", "b"});
  const Symbol a = sigma->id("a");
  const Symbol b = sigma->id("b");
  Buchi system(sigma);
  system.add_state(false);
  system.add_state(true);
  system.add_transition(0, b, 0);
  system.add_transition(0, a, 1);
  system.add_transition(1, a, 1);
  system.add_transition(1, b, 0);
  system.set_initial(0);
  ASSERT_FALSE(all_accepting(system));

  const Labeling lambda = Labeling::canonical(sigma);
  const Formula f = parse_ltl("G F a");
  const Buchi property = translate_ltl(f, lambda);
  const Buchi negated = translate_ltl_negated(f, lambda);
  EXPECT_TRUE(satisfies(system, f, lambda).holds);
  EXPECT_TRUE(relative_safety(system, f, lambda).holds);
  EXPECT_TRUE(relative_safety(system, property).holds);

  // A search that dropped L_ω would report a lasso of the form a*b^ω.
  const Buchi closure =
      Buchi::from_structure(prefix_of_intersection(system, property));
  const auto wrong = find_accepting_lasso_product({&closure, &negated});
  ASSERT_TRUE(wrong.has_value());
  EXPECT_EQ(wrong->period, Word(wrong->period.size(), b));
}

TEST(RelativeSafetyOperands, EngineMatchesLibraryWithCertifiedWitnesses) {
  Rng rng(515);
  Engine engine(EngineOptions{.certify_verdicts = true});
  std::size_t negatives = 0;
  for (int i = 0; i < 80; ++i) {
    const AlphabetRef sigma = random_alphabet(2);
    const Nfa ts = random_transition_system(rng, 2 + rng.next_below(4), sigma);
    const Buchi system = limit_of_prefix_closed(ts);
    const Labeling lambda = Labeling::canonical(sigma);
    const Formula f = random_formula(rng, {sigma->name(0), sigma->name(1)}, 3);
    const std::string text = serialize_system(ts);

    const Verdict rl = engine.run_one(
        {text, f.to_string(), CheckKind::kRelativeLiveness});
    const Verdict rs =
        engine.run_one({text, f.to_string(), CheckKind::kRelativeSafety});
    ASSERT_TRUE(rl.ok()) << f.to_string() << ": " << rl.error;
    ASSERT_TRUE(rs.ok()) << f.to_string() << ": " << rs.error;

    const RelativeLivenessResult lib_rl = relative_liveness(system, f, lambda);
    const RelativeSafetyResult lib_rs = relative_safety(system, f, lambda);
    EXPECT_EQ(rl.holds, lib_rl.holds) << f.to_string();
    EXPECT_EQ(rs.holds, lib_rs.holds) << f.to_string();
    EXPECT_TRUE(cert::validate(CheckKind::kRelativeLiveness,
                               {lib_rl.holds, lib_rl.violating_prefix, {}},
                               system, {f, lambda})
                    .valid);
    EXPECT_TRUE(cert::validate(CheckKind::kRelativeSafety,
                               {lib_rs.holds, {}, lib_rs.counterexample},
                               system, {f, lambda})
                    .valid);
    const Buchi property = translate_ltl(f, lambda);
    if (!rl.holds) {
      ++negatives;
      ASSERT_TRUE(rl.violating_prefix.has_value());
      EXPECT_TRUE(
          cert::check_doomed_prefix(*rl.violating_prefix, system, property)
              .valid);
    }
    if (!rs.holds) {
      ++negatives;
      ASSERT_TRUE(rs.counterexample.has_value());
      EXPECT_TRUE(cert::check_safety_lasso(*rs.counterexample, system,
                                           property, f, lambda)
                      .valid);
    }
  }
  EXPECT_GT(negatives, 10u);
}

}  // namespace
}  // namespace rlv
