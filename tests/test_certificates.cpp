// Certificate layer tests: witness validation, the brute-force oracle vs
// the optimized kernels, parallel-witness revalidation, engine certify
// mode, and rlvd JSON record round-trips (render → re-parse → re-validate)
// with hostile alphabet symbols.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rlv/cert/certificate.hpp"
#include "rlv/cert/oracle.hpp"
#include "rlv/core/check.hpp"
#include "rlv/core/relative.hpp"
#include "rlv/engine/engine.hpp"
#include "rlv/engine/record.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/io/format.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/ltl/eval.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/lasso.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/omega/product.hpp"
#include "rlv/util/rng.hpp"

namespace rlv::cert {
namespace {

// ---------------------------------------------------------------------------
// Satellite regression: an empty period must throw (not assert, which
// vanishes under -DNDEBUG and silently answers finite-word membership).

TEST(LassoGuards, EmptyPeriodThrows) {
  const AlphabetRef sigma = Alphabet::make({"a"});
  Buchi a(sigma);
  const State s = a.add_state(true);
  a.set_initial(s);
  a.add_transition(s, sigma->id("a"), s);
  EXPECT_THROW((void)accepts_lasso(a, {}, {}), std::invalid_argument);
  EXPECT_THROW((void)accepts_lasso(a, {sigma->id("a")}, {}),
               std::invalid_argument);
  // The guard must not fire on valid input.
  EXPECT_TRUE(accepts_lasso(a, {}, {sigma->id("a")}));
}

TEST(LassoGuards, GeneralizedGuards) {
  const AlphabetRef sigma = Alphabet::make({"a"});
  GenBuchi g(sigma);
  const State s = g.structure.add_state(false);
  g.structure.set_initial(s);
  g.structure.add_transition(s, sigma->id("a"), s);
  EXPECT_THROW((void)accepts_lasso_gen(g, {}, {}), std::invalid_argument);
  g.sets.assign(17, DynBitset(1));
  EXPECT_THROW((void)accepts_lasso_gen(g, {}, {sigma->id("a")}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Hand-built instances exercising each certificate leg.

/// 0 --a--> 1, 0 --b--> 0, 1 --b--> 1: behaviors are b^ω and b^n a b^ω.
Nfa ab_sink_system(const AlphabetRef& sigma) {
  Nfa system(sigma);
  const State s0 = system.add_state(true);
  const State s1 = system.add_state(true);
  system.set_initial(s0);
  system.add_transition(s0, sigma->id("a"), s1);
  system.add_transition(s0, sigma->id("b"), s0);
  system.add_transition(s1, sigma->id("b"), s1);
  return system;
}

TEST(Certificate, DoomedPrefixValidatesAndTampersFail) {
  const AlphabetRef sigma = Alphabet::make({"a", "b"});
  const Nfa system = ab_sink_system(sigma);
  const Buchi behaviors = limit_of_prefix_closed(system);
  const Labeling lambda = Labeling::canonical(sigma);
  // G F a fails on every behavior (at most one a), so every prefix is
  // doomed and relative liveness fails.
  const Formula gfa = parse_ltl("G F a");
  CheckOperands operands = CheckOperands::of_formula(behaviors, gfa, lambda);
  const CheckResult res = check(CheckKind::kRelativeLiveness, operands);
  ASSERT_FALSE(res.holds);
  ASSERT_TRUE(res.violating_prefix.has_value());
  const Validation v =
      validate(CheckKind::kRelativeLiveness, res, behaviors, {gfa, lambda});
  EXPECT_TRUE(v.valid) << v.reason;
  EXPECT_TRUE(v.checked);

  const Buchi property = translate_ltl(gfa, lambda);
  // Tamper 1: a word outside pre(L_ω) — "a a" dies in the sink.
  const Word not_in_pre{sigma->id("a"), sigma->id("a")};
  EXPECT_FALSE(check_doomed_prefix(not_in_pre, behaviors, property).valid);
  // Tamper 2: a prefix that IS extendable — any word, against G F b.
  const Formula gfb = parse_ltl("G F b");
  const Buchi property_b = translate_ltl(gfb, lambda);
  const Word extendable{sigma->id("b")};
  const Validation tampered =
      check_doomed_prefix(extendable, behaviors, property_b);
  EXPECT_FALSE(tampered.valid);
  EXPECT_NE(tampered.reason.find("extends"), std::string::npos);
}

TEST(Certificate, SafetyLassoValidatesAndTampersFail) {
  const AlphabetRef sigma = Alphabet::make({"a", "b"});
  const Nfa system = ab_sink_system(sigma);
  const Buchi behaviors = limit_of_prefix_closed(system);
  const Labeling lambda = Labeling::canonical(sigma);
  // F a is not a relative safety property here: b^ω violates it while all
  // its prefixes b^n extend into b^n a b^ω ∈ L_ω ∩ P.
  const Formula fa = parse_ltl("F a");
  CheckOperands operands = CheckOperands::of_formula(behaviors, fa, lambda);
  const CheckResult res = check(CheckKind::kRelativeSafety, operands);
  ASSERT_FALSE(res.holds);
  ASSERT_TRUE(res.counterexample.has_value());
  const Validation v =
      validate(CheckKind::kRelativeSafety, res, behaviors, {fa, lambda});
  EXPECT_TRUE(v.valid) << v.reason;
  EXPECT_TRUE(v.checked);

  const Buchi property = translate_ltl(fa, lambda);
  // Tamper 1: a lasso satisfying the property is no ¬P witness.
  const Lasso satisfying{{}, {sigma->id("a")}};
  EXPECT_FALSE(
      check_safety_lasso(satisfying, behaviors, property, fa, lambda).valid);
  // Tamper 2: the extendability leg. Against X F a, the lasso a·b^ω is a
  // genuine violation, but its prefix "a" has already left
  // pre(L_ω ∩ P) — only b^n-prefixed behaviors can still reach an "a"
  // at a position ≥ 1.
  const Formula xfa = parse_ltl("X F a");
  const Buchi property_x = translate_ltl(xfa, lambda);
  const Lasso doomed{{sigma->id("a")}, {sigma->id("b")}};
  const Validation tampered =
      check_safety_lasso(doomed, behaviors, property_x, xfa, lambda);
  EXPECT_FALSE(tampered.valid);
  EXPECT_NE(tampered.reason.find("extendable"), std::string::npos);
}

TEST(Certificate, SatisfactionCounterexampleValidates) {
  const AlphabetRef sigma = Alphabet::make({"a", "b"});
  const Nfa system = ab_sink_system(sigma);
  const Buchi behaviors = limit_of_prefix_closed(system);
  const Labeling lambda = Labeling::canonical(sigma);
  const Formula gfa = parse_ltl("G F a");
  CheckOperands operands = CheckOperands::of_formula(behaviors, gfa, lambda);
  const CheckResult res = check(CheckKind::kSatisfaction, operands);
  ASSERT_FALSE(res.holds);
  ASSERT_TRUE(res.counterexample.has_value());
  EXPECT_FALSE(eval_ltl(gfa, res.counterexample->prefix,
                        res.counterexample->period, lambda));
  const Validation v =
      validate(CheckKind::kSatisfaction, res, behaviors, {gfa, lambda});
  EXPECT_TRUE(v.valid) << v.reason;
  EXPECT_TRUE(v.checked);

  // Positive verdicts carry no certificate.
  const Formula fb = parse_ltl("F b");
  CheckOperands positive = CheckOperands::of_formula(behaviors, fb, lambda);
  const CheckResult pos = check(CheckKind::kSatisfaction, positive);
  ASSERT_TRUE(pos.holds);
  const Validation pv =
      validate(CheckKind::kSatisfaction, pos, behaviors, {fb, lambda});
  EXPECT_TRUE(pv.valid);
  EXPECT_FALSE(pv.checked);
}

// ---------------------------------------------------------------------------
// Kernel vs oracle on random instances (a miniature of tools/rlv_fuzz).

class OracleDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleDifferential, KernelsAgreeWithOracleAndCertify) {
  Rng rng(GetParam());
  for (int round = 0; round < 12; ++round) {
    const AlphabetRef sigma = random_alphabet(2 + rng.next_below(2));
    const Nfa system =
        random_transition_system(rng, 2 + rng.next_below(4), sigma);
    std::vector<std::string> atoms;
    for (Symbol s = 0; s < sigma->size(); ++s) {
      atoms.push_back(sigma->name(s));
    }
    const Formula f = random_formula(rng, atoms, 3);
    const Labeling lambda = Labeling::canonical(sigma);
    const Buchi behaviors = limit_of_prefix_closed(system);

    CheckOperands operands = CheckOperands::of_formula(behaviors, f, lambda);
    const CheckResult rl = check(CheckKind::kRelativeLiveness, operands);
    const CheckResult rs = check(CheckKind::kRelativeSafety, operands);
    const CheckResult sat = check(CheckKind::kSatisfaction, operands);
    ASSERT_EQ(rl.holds, oracle_relative_liveness(behaviors, f, lambda))
        << f.to_string() << "\n" << serialize_system(system);
    ASSERT_EQ(rs.holds, oracle_relative_safety(behaviors, f, lambda))
        << f.to_string() << "\n" << serialize_system(system);
    ASSERT_EQ(sat.holds, oracle_satisfies(behaviors, f, lambda))
        << f.to_string() << "\n" << serialize_system(system);
    // Theorem 4.7.
    ASSERT_EQ(sat.holds, rl.holds && rs.holds) << f.to_string();

    for (const Validation& v :
         {validate(CheckKind::kRelativeLiveness, rl, behaviors, {f, lambda}),
          validate(CheckKind::kRelativeSafety, rs, behaviors, {f, lambda}),
          validate(CheckKind::kSatisfaction, sat, behaviors, {f, lambda})}) {
      ASSERT_TRUE(v.valid) << v.reason << "\n"
                           << f.to_string() << "\n"
                           << serialize_system(system);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleDifferential,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// The antichain inclusion witness (not necessarily shortest: stale queued
// configurations are dropped) must survive independent revalidation just
// like the subset search's BFS-shortest one.

class RlWitness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RlWitness, AntichainAndSubsetWitnessesCertify) {
  Rng rng(GetParam() * 7919 + 13);
  int negatives = 0;
  for (int round = 0; round < 16; ++round) {
    const AlphabetRef sigma = random_alphabet(2 + rng.next_below(2));
    const Nfa system =
        random_transition_system(rng, 2 + rng.next_below(5), sigma);
    std::vector<std::string> atoms;
    for (Symbol s = 0; s < sigma->size(); ++s) {
      atoms.push_back(sigma->name(s));
    }
    const Formula f = random_formula(rng, atoms, 3);
    const Labeling lambda = Labeling::canonical(sigma);
    const Buchi behaviors = limit_of_prefix_closed(system);

    const Buchi property = translate_ltl(f, lambda);
    const Nfa pre_sys = prefix_nfa(behaviors);
    const RelativeLivenessResult antichain =
        relative_liveness(behaviors, f, lambda);
    const InclusionResult inc =
        check_inclusion(pre_sys, prefix_of_intersection(behaviors, property),
                        InclusionAlgorithm::kSubset);
    const RelativeLivenessResult subset{inc.included, inc.counterexample, {}};
    ASSERT_EQ(antichain.holds, subset.holds) << f.to_string();
    if (antichain.holds) continue;
    ++negatives;
    const Nfa pre_both = prefix_nfa(intersect_buchi(behaviors, property));
    for (const auto* res : {&antichain, &subset}) {
      ASSERT_TRUE(res->violating_prefix.has_value());
      // The certificate checker re-establishes both Lemma 4.3 legs.
      const Validation v =
          validate(CheckKind::kRelativeLiveness,
                   {res->holds, res->violating_prefix, {}}, behaviors,
                   {f, lambda});
      ASSERT_TRUE(v.valid) << v.reason << "\n" << f.to_string();
      // And the raw inclusion-level contract: the prefix is a genuine
      // member of pre(L_ω) \ pre(L_ω ∩ P).
      EXPECT_TRUE(pre_sys.accepts(*res->violating_prefix));
      EXPECT_FALSE(pre_both.accepts(*res->violating_prefix));
    }
  }
  // The seeds are chosen so the suite actually exercises negative verdicts.
  EXPECT_GT(negatives, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RlWitness,
                         ::testing::Range<std::uint64_t>(1, 7));

// ---------------------------------------------------------------------------
// Engine certify mode.

constexpr const char* kAbSinkText =
    "alphabet: a b\n"
    "states: 2\n"
    "initial: 0\n"
    "accepting: all\n"
    "0 a 1\n"
    "0 b 0\n"
    "1 b 1\n";

TEST(EngineCertify, ValidatesNegativeVerdictsBeforeCaching) {
  EngineOptions certified;
  certified.certify_verdicts = true;
  Engine engine(certified);
  Engine plain{EngineOptions{}};

  std::vector<Query> queries;
  for (const char* formula : {"G F a", "F a", "F b", "G(a -> X b)"}) {
    for (const CheckKind kind :
         {CheckKind::kRelativeLiveness, CheckKind::kRelativeSafety,
          CheckKind::kSatisfaction}) {
      Query q;
      q.system = kAbSinkText;
      q.formula = formula;
      q.kind = kind;
      queries.push_back(q);
    }
  }
  const std::vector<Verdict> certified_verdicts = engine.run(queries);
  const std::vector<Verdict> plain_verdicts = plain.run(queries);
  ASSERT_EQ(certified_verdicts.size(), plain_verdicts.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(certified_verdicts[i].ok()) << certified_verdicts[i].error;
    EXPECT_EQ(certified_verdicts[i].holds, plain_verdicts[i].holds)
        << queries[i].formula;
  }
  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.certificates_checked, 0u);
  EXPECT_EQ(stats.certificates_failed, 0u);
  // The uncertified engine never validates.
  EXPECT_EQ(plain.stats().certificates_checked, 0u);
}

// ---------------------------------------------------------------------------
// rlvd record round-trip with hostile alphabet symbols: render the record,
// re-parse the structured witness arrays, and re-validate the witness.

/// Extracts ["x","y",...] for `field` from a JSON record, undoing the
/// escaping json_escape applied (only \" and \\ occur in these tests).
std::vector<std::string> extract_array(const std::string& record,
                                       const std::string& field) {
  const std::string needle = "\"" + field + "\":[";
  const std::size_t start = record.find(needle);
  if (start == std::string::npos) return {};
  std::vector<std::string> items;
  std::size_t pos = start + needle.size();
  while (pos < record.size() && record[pos] != ']') {
    EXPECT_EQ(record[pos], '"') << record.substr(pos, 20);
    ++pos;
    std::string item;
    while (pos < record.size() && record[pos] != '"') {
      if (record[pos] == '\\' && pos + 1 < record.size()) {
        ++pos;
        item += record[pos];
      } else {
        item += record[pos];
      }
      ++pos;
    }
    ++pos;  // closing quote
    items.push_back(std::move(item));
    if (pos < record.size() && record[pos] == ',') ++pos;
  }
  return items;
}

Word to_word(const std::vector<std::string>& names, const Alphabet& sigma) {
  Word w;
  for (const std::string& name : names) w.push_back(sigma.id(name));
  return w;
}

TEST(RecordRoundTrip, HostileSymbolsSatisfactionLasso) {
  // Action names containing quotes and backslashes exercise json_escape on
  // the render side and the unescaper above on the parse side.
  const std::string sys_text =
      "alphabet: go\"quote back\\slash\n"
      "states: 2\n"
      "initial: 0\n"
      "accepting: all\n"
      "0 go\"quote 1\n"
      "1 back\\slash 1\n"
      "0 back\\slash 0\n";
  // Büchi automaton for "infinitely many go\"quote".
  const std::string prop_text =
      "alphabet: go\"quote back\\slash\n"
      "states: 2\n"
      "initial: 0\n"
      "accepting: 1\n"
      "0 back\\slash 0\n"
      "0 go\"quote 1\n"
      "1 go\"quote 1\n"
      "1 back\\slash 0\n";

  Query query;
  query.system = sys_text;
  query.property_automaton = prop_text;
  query.kind = CheckKind::kSatisfaction;

  Engine engine{EngineOptions{}};
  const Verdict verdict = engine.run_one(query);
  ASSERT_TRUE(verdict.ok()) << verdict.error;
  ASSERT_FALSE(verdict.holds);  // every behavior has finitely many go"quote
  ASSERT_TRUE(verdict.counterexample.has_value());

  const std::string record = render_query_record(
      0, query, verdict, "hostile.rlv", "prop.rlv", engine.stats().total());
  const Nfa system = parse_system(sys_text);
  const AlphabetRef sigma = system.alphabet();

  const Word prefix = to_word(extract_array(record, "witness_prefix"), *sigma);
  const std::vector<std::string> period_names =
      extract_array(record, "witness_period");
  ASSERT_FALSE(period_names.empty());
  const Word period = to_word(period_names, *sigma);
  EXPECT_EQ(prefix, verdict.counterexample->prefix);
  EXPECT_EQ(period, verdict.counterexample->period);

  // Re-validate the re-parsed witness against freshly parsed automata.
  const Buchi behaviors = limit_of_prefix_closed(system);
  const Buchi property = Buchi::from_structure(
      remap_alphabet(parse_buchi(prop_text).structure(), sigma));
  const Validation v =
      check_violation_lasso(Lasso{prefix, period}, behaviors, property);
  EXPECT_TRUE(v.valid) << v.reason;
}

TEST(RecordRoundTrip, ViolatingPrefixArray) {
  Query query;
  query.system = kAbSinkText;
  query.formula = "G F a";
  query.kind = CheckKind::kRelativeLiveness;

  Engine engine{EngineOptions{}};
  const Verdict verdict = engine.run_one(query);
  ASSERT_TRUE(verdict.ok()) << verdict.error;
  ASSERT_FALSE(verdict.holds);
  ASSERT_TRUE(verdict.violating_prefix.has_value());

  const std::string record = render_query_record(
      3, query, verdict, "ab.rlv", "", engine.stats().total());
  EXPECT_EQ(record.find("\"witness_period\""), std::string::npos);

  const Nfa system = parse_system(query.system);
  const Word prefix =
      to_word(extract_array(record, "witness_prefix"), *system.alphabet());
  EXPECT_EQ(prefix, *verdict.violating_prefix);

  const Buchi behaviors = limit_of_prefix_closed(system);
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Buchi property = translate_ltl(parse_ltl("G F a"), lambda);
  const Validation v = check_doomed_prefix(prefix, behaviors, property);
  EXPECT_TRUE(v.valid) << v.reason;
}

}  // namespace
}  // namespace rlv::cert
