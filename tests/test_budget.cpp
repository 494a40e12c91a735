// Tests for rlv::Budget resource governance: stage attribution, state caps,
// deadlines, ResourceExhausted propagation through the kernels and the
// relative liveness/safety pipeline, engine surfacing as resource_exhausted
// verdicts, and the guarantee that a generous budget never changes a
// verdict relative to unbudgeted execution.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "rlv/core/relative.hpp"
#include "rlv/engine/engine.hpp"
#include "rlv/fair/fair_check.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/io/format.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/complement.hpp"
#include "rlv/omega/lasso.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/product.hpp"
#include "rlv/util/budget.hpp"
#include "rlv/util/rng.hpp"

namespace rlv {
namespace {

/// Dense nondeterministic Büchi automaton: every state initial, complete
/// transition relation onto every state, one accepting state. Rank-based
/// complementation of this shape explodes combinatorially.
Buchi dense_buchi(std::size_t num_states, AlphabetRef sigma) {
  Buchi aut(sigma);
  for (State s = 0; s < num_states; ++s) {
    aut.add_state(s == 0);
    aut.set_initial(s);
  }
  for (State s = 0; s < num_states; ++s) {
    for (Symbol a = 0; a < sigma->size(); ++a) {
      for (State t = 0; t < num_states; ++t) aut.add_transition(s, a, t);
    }
  }
  return aut;
}

// ---------------------------------------------------------------------------
// Budget primitives.

TEST(Budget, StateCapTripsWithStageAttribution) {
  Budget budget;
  budget.set_max_states(10);
  StageScope scope(&budget, Stage::kComplement);
  for (int i = 0; i < 10; ++i) budget.charge();
  try {
    budget.charge();
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.stage(), Stage::kComplement);
    EXPECT_EQ(e.kind(), ResourceExhausted::Kind::kStates);
  }
  EXPECT_EQ(budget.profile()[Stage::kComplement].states_built, 11u);
}

TEST(Budget, ExpiredDeadlineTripsAtNextStageBoundary) {
  Budget budget;
  budget.set_deadline_in(std::chrono::milliseconds(0));
  // The entry check of a new StageScope consults the clock directly, so an
  // already-expired budget trips even if nothing was ever charged.
  EXPECT_THROW(
      { StageScope scope(&budget, Stage::kInclusion); },
      ResourceExhausted);
}

TEST(Budget, NullBudgetHelpersAreNoOps) {
  budget_charge(nullptr, 1000);
  budget_tick(nullptr);
  budget_note_frontier(nullptr, 1000);
  StageScope scope(nullptr, Stage::kProduct);  // must not crash
}

TEST(Budget, NestedScopesRecordExclusiveTime) {
  Budget budget;
  {
    StageScope outer(&budget, Stage::kTranslate);
    { StageScope inner(&budget, Stage::kProduct); }
    budget.charge(3);
  }
  const QueryProfile& p = budget.profile();
  EXPECT_EQ(p[Stage::kTranslate].calls, 1u);
  EXPECT_EQ(p[Stage::kProduct].calls, 1u);
  EXPECT_EQ(p[Stage::kTranslate].states_built, 3u);
  // Exclusive accounting: total = sum of per-stage exclusive nanos, and the
  // outer stage's nanos exclude the inner scope's.
  EXPECT_GE(p.total_nanos(), p[Stage::kProduct].nanos);
}

// ---------------------------------------------------------------------------
// Kernel-level tripping.

TEST(Budget, ComplementStateCapRaisesInComplementStage) {
  const AlphabetRef sigma = random_alphabet(2);
  const Buchi hard = dense_buchi(6, sigma);
  Budget budget;
  budget.set_max_states(200);
  try {
    const Buchi c = complement_buchi(hard, &budget);
    FAIL() << "expected ResourceExhausted, got " << c.num_states()
           << " states";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.stage(), Stage::kComplement);
    EXPECT_EQ(e.kind(), ResourceExhausted::Kind::kStates);
  }
}

TEST(Budget, ComplementDeadlineRaisesPromptly) {
  const AlphabetRef sigma = random_alphabet(2);
  const Buchi hard = dense_buchi(7, sigma);
  Budget budget;
  budget.set_deadline_in(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)complement_buchi(hard, &budget), ResourceExhausted);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // The tick amortization checks the clock every 64 steps; the raise must
  // come promptly, not after the (hours-long) full construction. Generous
  // margin: construction must have aborted within a second of the deadline.
  EXPECT_LT(elapsed.count(), 2000);
}

TEST(Budget, DeterminizeChargesUnderCallerStage) {
  Rng rng(7);
  const AlphabetRef sigma = random_alphabet(2);
  const Nfa nfa = random_nfa(rng, 8, sigma);
  Budget budget;
  {
    StageScope scope(&budget, Stage::kPreTrim);
    const Dfa dfa = determinize(nfa, &budget);
    EXPECT_EQ(budget.profile()[Stage::kPreTrim].states_built,
              dfa.num_states());
  }
}

TEST(Budget, InclusionRecordsFrontierPeak) {
  Rng rng(11);
  const AlphabetRef sigma = random_alphabet(2);
  const Nfa a = random_nfa(rng, 6, sigma);
  const Nfa b = random_nfa(rng, 6, sigma);
  Budget budget;
  (void)check_inclusion(a, b, InclusionAlgorithm::kAntichain, &budget);
  const StageMetrics& m = budget.profile()[Stage::kInclusion];
  EXPECT_EQ(m.calls, 1u);
  if (m.states_built > 0) {
    EXPECT_GE(m.peak_antichain, 1u);
  }
}

// ---------------------------------------------------------------------------
// relative_* surface the tripped stage instead of a wrong boolean.

TEST(Budget, RelativeSafetyAutomatonFlavorReportsExhausted) {
  Rng rng(3);
  const AlphabetRef sigma = random_alphabet(2);
  const Nfa system_nfa = random_transition_system(rng, 6, sigma);
  const Buchi system = limit_of_prefix_closed(system_nfa);
  const Buchi hard = dense_buchi(6, sigma);

  Budget budget;
  budget.set_max_states(500);
  const RelativeSafetyResult res = relative_safety(system, hard, &budget);
  ASSERT_TRUE(res.exhausted.has_value());
  EXPECT_EQ(*res.exhausted, Stage::kComplement);
  EXPECT_FALSE(res.counterexample.has_value());
}

// Regression: satisfies() used to let ResourceExhausted escape as an
// exception (unlike every relative_* entry point). It now reports the
// tripped stage through SatisfactionResult::exhausted instead.
TEST(Budget, SatisfiesReportsExhaustedInsteadOfThrowing) {
  Rng rng(5);
  const AlphabetRef sigma = random_alphabet(2);
  const Nfa system_nfa = random_transition_system(rng, 6, sigma);
  const Buchi system = limit_of_prefix_closed(system_nfa);
  const Labeling lambda = Labeling::canonical(sigma);

  // Formula flavor: a 1-state budget trips inside the LTL translation.
  Budget tiny;
  tiny.set_max_states(1);
  const SatisfactionResult formula_res =
      satisfies(system, parse_ltl("G F a0"), lambda, &tiny);
  ASSERT_TRUE(formula_res.exhausted.has_value());
  EXPECT_FALSE(formula_res.holds);

  // Automaton flavor: trips inside rank-based complementation.
  Budget tiny2;
  tiny2.set_max_states(1);
  const Buchi hard = dense_buchi(4, sigma);
  const SatisfactionResult automaton_res = satisfies(system, hard, &tiny2);
  ASSERT_TRUE(automaton_res.exhausted.has_value());
  EXPECT_FALSE(automaton_res.holds);

  // An unarmed budget must not report exhaustion.
  Budget unarmed;
  const SatisfactionResult ok = satisfies(system, parse_ltl("G F a0"), lambda,
                                          &unarmed);
  EXPECT_FALSE(ok.exhausted.has_value());
}

TEST(Budget, RelativeLivenessFormulaFlavorUnaffectedByGenerousBudget) {
  Rng rng(17);
  for (int round = 0; round < 25; ++round) {
    const AlphabetRef sigma = random_alphabet(2 + round % 2);
    const Nfa system_nfa = random_transition_system(rng, 4 + round % 4, sigma);
    const Buchi system = limit_of_prefix_closed(system_nfa);
    std::vector<std::string> atoms;
    for (Symbol a = 0; a < sigma->size(); ++a) {
      atoms.push_back(std::string(sigma->name(a)));
    }
    const Formula f = random_formula(rng, atoms, 3);
    const Labeling lambda = Labeling::canonical(sigma);

    Budget generous;
    generous.set_max_states(50'000'000);
    generous.set_deadline_in(std::chrono::minutes(10));

    const RelativeLivenessResult plain = relative_liveness(system, f, lambda);
    const RelativeLivenessResult budgeted =
        relative_liveness(system, f, lambda, &generous);
    ASSERT_FALSE(plain.exhausted.has_value());
    ASSERT_FALSE(budgeted.exhausted.has_value());
    EXPECT_EQ(plain.holds, budgeted.holds) << "round " << round;
    EXPECT_EQ(plain.violating_prefix, budgeted.violating_prefix)
        << "round " << round;
  }
}

TEST(Budget, RelativeSafetyAutomatonFlavorUnaffectedByGenerousBudget) {
  Rng rng(23);
  for (int round = 0; round < 10; ++round) {
    const AlphabetRef sigma = random_alphabet(2);
    const Nfa system_nfa = random_transition_system(rng, 4, sigma);
    const Buchi system = limit_of_prefix_closed(system_nfa);
    // Small random properties keep the unbudgeted complement tractable.
    const Buchi property = random_buchi(rng, 3, sigma);

    Budget generous;
    generous.set_max_states(50'000'000);
    generous.set_deadline_in(std::chrono::minutes(10));

    const RelativeSafetyResult plain = relative_safety(system, property);
    const RelativeSafetyResult budgeted =
        relative_safety(system, property, &generous);
    ASSERT_FALSE(plain.exhausted.has_value());
    ASSERT_FALSE(budgeted.exhausted.has_value());
    EXPECT_EQ(plain.holds, budgeted.holds) << "round " << round;
  }
}

TEST(Budget, InclusionVerdictsUnaffectedByGenerousBudget) {
  Rng rng(29);
  for (int round = 0; round < 50; ++round) {
    const AlphabetRef sigma = random_alphabet(2);
    const Nfa a = random_nfa(rng, 5, sigma);
    const Nfa b = random_nfa(rng, 5, sigma);
    Budget generous;
    generous.set_max_states(50'000'000);
    for (const auto algorithm :
         {InclusionAlgorithm::kSubset, InclusionAlgorithm::kAntichain}) {
      const InclusionResult plain = check_inclusion(a, b, algorithm);
      const InclusionResult budgeted =
          check_inclusion(a, b, algorithm, &generous);
      EXPECT_EQ(plain.included, budgeted.included) << "round " << round;
      EXPECT_EQ(plain.counterexample, budgeted.counterexample)
          << "round " << round;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine surfacing.

TEST(Budget, EngineMarksExponentialQueryExhaustedAndAnswersSiblings) {
  Rng rng(5);
  const AlphabetRef sigma = random_alphabet(2);
  const Nfa system_nfa = random_transition_system(rng, 5, sigma);
  const std::string system_text = serialize_system(system_nfa);
  const std::string hard_text = serialize_buchi(dense_buchi(6, sigma));

  Query hard;
  hard.system = system_text;
  hard.property_automaton = hard_text;
  hard.kind = CheckKind::kRelativeSafety;

  Query sibling;
  sibling.system = system_text;
  sibling.formula = "G F a0";
  sibling.kind = CheckKind::kRelativeLiveness;

  EngineOptions limited;
  limited.max_states = 2'000;
  Engine engine(limited);
  const std::vector<Verdict> verdicts = engine.run({sibling, hard, sibling});

  Engine unbudgeted{EngineOptions{}};
  const Verdict reference = unbudgeted.run_one(sibling);

  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_TRUE(verdicts[0].ok());
  EXPECT_EQ(verdicts[0].holds, reference.holds);
  EXPECT_FALSE(verdicts[1].ok());
  EXPECT_TRUE(verdicts[1].resource_exhausted);
  EXPECT_EQ(verdicts[1].exhausted_stage, "complement");
  EXPECT_TRUE(verdicts[1].error.empty());
  EXPECT_TRUE(verdicts[2].ok());
  EXPECT_EQ(verdicts[2].holds, reference.holds);
}

TEST(Budget, ExhaustedVerdictsAreNeverCached) {
  Rng rng(5);
  const AlphabetRef sigma = random_alphabet(2);
  const Nfa system_nfa = random_transition_system(rng, 5, sigma);

  Query hard;
  hard.system = serialize_system(system_nfa);
  hard.property_automaton = serialize_buchi(dense_buchi(6, sigma));
  hard.kind = CheckKind::kRelativeSafety;

  EngineOptions limited;
  limited.max_states = 2'000;
  Engine engine(limited);
  const Verdict first = engine.run_one(hard);
  const Verdict second = engine.run_one(hard);
  EXPECT_TRUE(first.resource_exhausted);
  EXPECT_TRUE(second.resource_exhausted);
  // Both executions computed (and failed) afresh: no verdict-cache hit may
  // serve an exhausted outcome.
  EXPECT_EQ(engine.stats().verdicts.hits, 0u);
  EXPECT_EQ(engine.stats().verdicts.misses, 2u);
}

TEST(Budget, EngineCollectsStageProfilesWithoutLimits) {
  Rng rng(5);
  const AlphabetRef sigma = random_alphabet(2);
  Query query;
  query.system = serialize_system(random_transition_system(rng, 5, sigma));
  query.formula = "G F a0";
  query.kind = CheckKind::kRelativeSafety;

  Engine engine{EngineOptions{}};
  const Verdict verdict = engine.run_one(query);
  ASSERT_TRUE(verdict.ok());
  EXPECT_GT(verdict.profile.total_nanos(), 0u);
  EXPECT_GT(verdict.profile[Stage::kTranslate].calls, 0u);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.stages[Stage::kTranslate].calls,
            verdict.profile[Stage::kTranslate].calls);
  // Stage wall-time sum must not exceed the query's wall time by more than
  // bookkeeping noise (exclusive accounting prevents double counting).
  EXPECT_LE(static_cast<double>(verdict.profile.total_nanos()) / 1e6,
            verdict.millis * 1.5 + 1.0);
}

TEST(Budget, GenerousEngineBudgetMatchesUnbudgetedVerdicts) {
  Rng rng(41);
  std::vector<Query> batch;
  for (int i = 0; i < 12; ++i) {
    const AlphabetRef sigma = random_alphabet(2);
    Query q;
    q.system = serialize_system(random_transition_system(rng, 4, sigma));
    q.formula = i % 2 ? "G F a0" : "G(a0 -> F a1)";
    q.kind = i % 3 == 0 ? CheckKind::kRelativeSafety
                        : CheckKind::kRelativeLiveness;
    batch.push_back(std::move(q));
  }

  Engine plain{EngineOptions{}};
  EngineOptions generous;
  generous.timeout_ms = 600'000;
  generous.max_states = 500'000'000;
  Engine budgeted(generous);

  const std::vector<Verdict> expected = plain.run(batch);
  const std::vector<Verdict> actual = budgeted.run(batch);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].ok(), actual[i].ok()) << "query " << i;
    EXPECT_EQ(expected[i].holds, actual[i].holds) << "query " << i;
    EXPECT_EQ(expected[i].violating_prefix, actual[i].violating_prefix)
        << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Fair checks: the product is charged under `product`, and the Streett search
// ticks the deadline under `emptiness`.

/// The `bits`-dimensional hypercube as system text: 2^bits states, action
/// t<i> flips bit i. Strongly connected, so every fair check explores all of
/// it.
std::string hypercube_text(int bits) {
  std::string text = "alphabet:";
  for (int i = 0; i < bits; ++i) text += " t" + std::to_string(i);
  text += "\nstates: " + std::to_string(1 << bits) +
          "\ninitial: 0\naccepting: all\n";
  for (int s = 0; s < (1 << bits); ++s) {
    for (int i = 0; i < bits; ++i) {
      text += std::to_string(s) + " t" + std::to_string(i) + " " +
              std::to_string(s ^ (1 << i)) + "\n";
    }
  }
  return text;
}

TEST(Budget, FairQueriesHonourTheStateCap) {
  const std::string text = hypercube_text(12);
  // Parsing charges the 4096 declared states; the remaining 1904 cannot
  // hold the product of the system and ¬P. A fresh engine per kind, so
  // both kinds parse (a cached system would leave all 6000 to the product).
  EngineOptions limited;
  limited.max_states = 6'000;
  for (const CheckKind kind : {CheckKind::kFairStrong, CheckKind::kFairWeak}) {
    Engine engine(limited);
    const Verdict v = engine.run_one({text, "G F t0", kind});
    EXPECT_EQ(v.profile[Stage::kParse].states_built, 4096u)
        << check_kind_name(kind);
    EXPECT_TRUE(v.resource_exhausted) << check_kind_name(kind);
    EXPECT_EQ(v.exhausted_stage, "product") << check_kind_name(kind);
  }
}

TEST(Budget, FairCheckHonoursTheDeadline) {
  // Prepared outside the budget, so only the fair check's own stages run
  // against the deadline. Unbudgeted, this check takes well over 100 ms in
  // Release on a 4-core host.
  const Nfa system_nfa = parse_system(hypercube_text(14));
  const Buchi system = limit_of_prefix_closed(system_nfa);
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Buchi negated = translate_ltl_negated(parse_ltl("G F t0"), lambda);

  Budget budget;
  budget.set_deadline_in(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)check_fair_satisfaction_negated(
        system, negated, FairnessKind::kStrongTransition, &budget);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.kind(), ResourceExhausted::Kind::kDeadline);
    EXPECT_TRUE(e.stage() == Stage::kProduct || e.stage() == Stage::kEmptiness)
        << stage_name(e.stage());
  }
#ifdef NDEBUG
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1000));
#endif
}

TEST(Budget, FairPeriodIsOneWalkOverTheProduct) {
  // On the 8-bit hypercube every state enables every action, so the fair
  // SCC of the system × ¬(F G t0) product is nearly all of it. Its period
  // takes an untraversed edge wherever there is one and searches only when
  // stuck, so it stays within the product's edges plus its states.
  const Nfa system_nfa = parse_system(hypercube_text(8));
  const Buchi system = limit_of_prefix_closed(system_nfa);
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Buchi negated = translate_ltl_negated(parse_ltl("F G t0"), lambda);
  const PairProduct product =
      pair_product(system.structure(), negated.structure());
  EXPECT_EQ(product.size(), 513u);
  EXPECT_EQ(product.edges.size(), 7'695u);

  const FairCheckResult r = check_fair_satisfaction_negated(system, negated);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_TRUE(accepts_lasso(system, *r.counterexample));
  EXPECT_TRUE(accepts_lasso(negated, *r.counterexample));
  EXPECT_LE(r.counterexample->period.size(),
            product.edges.size() + product.size());
}

TEST(Budget, FairVerdictsUnaffectedByGenerousBudget) {
  Rng rng(77);
  for (int i = 0; i < 40; ++i) {
    const AlphabetRef sigma = random_alphabet(2);
    const Nfa ts = random_transition_system(rng, 2 + rng.next_below(4), sigma);
    const Buchi system = limit_of_prefix_closed(ts);
    const Labeling lambda = Labeling::canonical(sigma);
    const Formula f =
        random_formula(rng, {sigma->name(0), sigma->name(1)}, 3);
    for (const FairnessKind kind :
         {FairnessKind::kStrongTransition, FairnessKind::kWeakTransition}) {
      Budget generous;
      generous.set_deadline_in(std::chrono::milliseconds(600'000));
      generous.set_max_states(500'000'000);
      const FairCheckResult plain =
          check_fair_satisfaction(system, f, lambda, kind);
      const FairCheckResult budgeted =
          check_fair_satisfaction(system, f, lambda, kind, &generous);
      EXPECT_EQ(plain.all_fair_runs_satisfy, budgeted.all_fair_runs_satisfy)
          << f.to_string();
      EXPECT_EQ(plain.counterexample.has_value(),
                budgeted.counterexample.has_value());
      if (plain.counterexample && budgeted.counterexample) {
        EXPECT_EQ(plain.counterexample->prefix,
                  budgeted.counterexample->prefix);
        EXPECT_EQ(plain.counterexample->period,
                  budgeted.counterexample->period);
      }
      EXPECT_GT(generous.profile()[Stage::kProduct].states_built, 0u);
      EXPECT_EQ(generous.profile()[Stage::kEmptiness].calls, 1u);
    }
  }
}

// ---------------------------------------------------------------------------
// Parsing charges the declared state count before allocating.

TEST(Budget, ParseChargesDeclaredStatesBeforeAllocating) {
  const std::string text =
      "alphabet: a\nstates: 3000000000\ninitial: 0\naccepting: all\n";
  Budget budget;
  budget.set_max_states(1'000);
  try {
    StageScope scope(&budget, Stage::kParse);
    (void)parse_system(text, &budget);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.stage(), Stage::kParse);
  }
  EXPECT_THROW((void)parse_buchi(text, &budget), ResourceExhausted);

  EngineOptions limited;
  limited.max_states = 1'000;
  Engine engine(limited);
  const Query query{text, "G F a", CheckKind::kRelativeLiveness};
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    const Verdict verdict = engine.run_one(query);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(verdict.resource_exhausted);
    EXPECT_EQ(verdict.exhausted_stage, "parse");
    EXPECT_LT(elapsed, std::chrono::milliseconds(100));
  }
  // The failed parse left no cache entry: the retry parsed (and failed)
  // afresh.
  EXPECT_EQ(engine.stats().systems.misses, 2u);
  EXPECT_EQ(engine.stats().systems.hits, 0u);
}

TEST(Budget, ParseHonoursADeadlineAlone) {
  // No state cap: the declared count is charged but cannot trip, and the
  // allocation loop must stop at the deadline instead of running for
  // seconds towards the allocator's limit.
  const std::string text =
      "alphabet: a\nstates: 3000000000\ninitial: 0\naccepting: all\n";
  EngineOptions limited;
  limited.timeout_ms = 20;
  Engine engine(limited);
  const auto start = std::chrono::steady_clock::now();
  const Verdict verdict =
      engine.run_one({text, "G F a", CheckKind::kRelativeLiveness});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(verdict.resource_exhausted);
  EXPECT_EQ(verdict.exhausted_stage, "parse");
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
}

// ---------------------------------------------------------------------------
// The translations cache holds one tableau per formula polarity; building
// one and instantiating one are both charged under `translate`.

TEST(Budget, StateCapTripsWhileBuildingAndWhileInstantiatingTableaux) {
  Rng rng(77);
  const AlphabetRef sigma = random_alphabet(3);
  const std::string first =
      serialize_system(random_transition_system(rng, 5, sigma));
  const std::string second =
      serialize_system(random_transition_system(rng, 6, random_alphabet(3)));
  const std::string formula = "G F a0 && G F a1 && (a0 U a2) && F G !a1";

  // States charged before the translation starts: the parse (and any
  // pre_trim work), read off an unbudgeted run of the same query.
  const auto cap_before_translate = [&](const std::string& system) {
    Engine reference{EngineOptions{}};
    const Verdict v =
        reference.run_one({system, formula, CheckKind::kSatisfaction});
    EXPECT_TRUE(v.ok()) << v.error;
    EXPECT_GT(v.profile[Stage::kTranslate].states_built, 2u);
    return v.profile[Stage::kParse].states_built +
           v.profile[Stage::kPreTrim].states_built + 1;
  };

  Engine engine{EngineOptions{}};
  Query building{first, formula, CheckKind::kSatisfaction};
  building.max_states = cap_before_translate(first);
  const Verdict tripped_build = engine.run_one(building);
  EXPECT_TRUE(tripped_build.resource_exhausted);
  EXPECT_EQ(tripped_build.exhausted_stage, "translate");
  EXPECT_EQ(engine.stats().translations.misses, 1u);

  // The exhausted build left no cache entry: an unbudgeted retry builds
  // the tableau again.
  building.max_states = 0;
  const Verdict built = engine.run_one(building);
  ASSERT_TRUE(built.ok()) << built.error;
  EXPECT_EQ(engine.stats().translations.misses, 2u);
  EXPECT_EQ(engine.stats().translations.hits, 0u);

  // Now resident: a query on another system only instantiates it, and the
  // cap trips there.
  Query instantiating{second, formula, CheckKind::kSatisfaction};
  instantiating.max_states = cap_before_translate(second);
  const Verdict tripped_instantiate = engine.run_one(instantiating);
  EXPECT_TRUE(tripped_instantiate.resource_exhausted);
  EXPECT_EQ(tripped_instantiate.exhausted_stage, "translate");
  EXPECT_EQ(engine.stats().translations.misses, 2u);
  EXPECT_EQ(engine.stats().translations.hits, 1u);
}

}  // namespace
}  // namespace rlv
