// Tests for the PLTL layer (rlv_ltl): parser, printer, positive normal
// form, lasso-word evaluation, GPVW translation (cross-validated against
// the evaluator on random formulas and lassos), and the Section-7 T/R̄
// transformation (Lemma 7.5, cross-validated against direct projection).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "rlv/gen/random.hpp"
#include "rlv/hom/homomorphism.hpp"
#include "rlv/ltl/ast.hpp"
#include "rlv/ltl/eval.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/transform.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/lasso.hpp"
#include "rlv/util/rng.hpp"

// hom_labeling lives in core to keep library layering acyclic.
#include "rlv/core/preservation.hpp"

namespace rlv {
namespace {

AlphabetRef ab() {
  static AlphabetRef sigma = Alphabet::make({"a", "b"});
  return sigma;
}

Labeling lab() { return Labeling::canonical(ab()); }

Word w(std::initializer_list<const char*> names) {
  Word out;
  for (const char* n : names) out.push_back(ab()->id(n));
  return out;
}

TEST(Parser, PrecedenceAndRoundTrip) {
  const Formula f = parse_ltl("G F result");
  EXPECT_EQ(f, f_always(f_eventually(f_atom("result"))));
  EXPECT_EQ(f.to_string(), "G F result");

  EXPECT_EQ(parse_ltl("a && b || c"),
            f_or(f_and(f_atom("a"), f_atom("b")), f_atom("c")));
  EXPECT_EQ(parse_ltl("a -> b -> c"),
            f_implies(f_atom("a"), f_implies(f_atom("b"), f_atom("c"))));
  EXPECT_EQ(parse_ltl("a U b U c"),
            f_until(f_atom("a"), f_until(f_atom("b"), f_atom("c"))));
  EXPECT_EQ(parse_ltl("!a"), f_not(f_atom("a")));
  EXPECT_EQ(parse_ltl("!(a U b)"), f_not(f_until(f_atom("a"), f_atom("b"))));
  EXPECT_EQ(parse_ltl("X X a"), f_next(f_next(f_atom("a"))));
  EXPECT_EQ(parse_ltl("true && false"), f_false());  // simplification
}

TEST(Parser, BeforeOperator) {
  // ξ B ζ = ¬(¬ξ U ζ) = ξ R ¬ζ.
  EXPECT_EQ(parse_ltl("a B b"), f_release(f_atom("a"), f_not(f_atom("b"))));
}

TEST(Parser, Errors) {
  EXPECT_THROW((void)parse_ltl(""), LtlParseError);
  EXPECT_THROW((void)parse_ltl("(a"), LtlParseError);
  EXPECT_THROW((void)parse_ltl("a b"), LtlParseError);
  EXPECT_THROW((void)parse_ltl("&& a"), LtlParseError);
}

// The parser recurses once per prefix operator, parenthesis and
// right-nested binary operand; past 1000 levels it must refuse the input
// with a structured error instead of running off the stack.
constexpr std::size_t kParserMaxDepth = 1000;

std::string repeat(std::string_view unit, std::size_t n) {
  std::string out;
  out.reserve(unit.size() * n);
  for (std::size_t i = 0; i < n; ++i) out += unit;
  return out;
}

/// `nest(n)` builds a formula n levels deep at one recursion site.
template <typename Nest>
void expect_depth_bounded(Nest nest) {
  EXPECT_NO_THROW((void)parse_ltl(nest(kParserMaxDepth)));
  try {
    (void)parse_ltl(nest(kParserMaxDepth + 1));
    ADD_FAILURE() << "expected LtlParseError";
  } catch (const LtlParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"),
              std::string::npos)
        << e.what();
    EXPECT_GT(e.position(), 0u);
  }
  // Far past the bound (a stack overflow before the bound existed).
  EXPECT_THROW((void)parse_ltl(nest(200000)), LtlParseError);
}

TEST(ParserDepth, Not) {
  expect_depth_bounded([](std::size_t n) { return repeat("!", n) + "a"; });
  try {
    (void)parse_ltl(repeat("!", kParserMaxDepth + 1) + "a");
  } catch (const LtlParseError& e) {
    EXPECT_EQ(e.position(), kParserMaxDepth + 1);  // just past the culprit
  }
}

TEST(ParserDepth, Next) {
  expect_depth_bounded([](std::size_t n) { return repeat("X ", n) + "a"; });
}

TEST(ParserDepth, Eventually) {
  expect_depth_bounded([](std::size_t n) { return repeat("F ", n) + "a"; });
}

TEST(ParserDepth, Always) {
  expect_depth_bounded([](std::size_t n) { return repeat("G ", n) + "a"; });
}

TEST(ParserDepth, Parentheses) {
  expect_depth_bounded(
      [](std::size_t n) { return repeat("(", n) + "a" + repeat(")", n); });
}

TEST(ParserDepth, Until) {
  expect_depth_bounded([](std::size_t n) { return repeat("a U ", n) + "b"; });
}

TEST(ParserDepth, Release) {
  expect_depth_bounded([](std::size_t n) { return repeat("a R ", n) + "b"; });
}

TEST(ParserDepth, Before) {
  expect_depth_bounded([](std::size_t n) { return repeat("a B ", n) + "b"; });
}

TEST(ParserDepth, Implies) {
  expect_depth_bounded([](std::size_t n) { return repeat("a -> ", n) + "b"; });
}

TEST(ParserDepth, FlatChainsAreNotNesting) {
  // Left-associative operators loop instead of recursing: no bound.
  EXPECT_NO_THROW((void)parse_ltl(repeat("a && ", 50000) + "b"));
  EXPECT_NO_THROW((void)parse_ltl(repeat("a || ", 50000) + "b"));
  EXPECT_NO_THROW((void)parse_ltl(repeat("a <-> ", 50000) + "b"));
}

TEST(Ast, HashConsingGivesPointerEquality) {
  const Formula f1 = f_and(f_atom("x"), f_next(f_atom("y")));
  const Formula f2 = f_and(f_atom("x"), f_next(f_atom("y")));
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f1.raw(), f2.raw());
}

TEST(Ast, PureBooleanDetection) {
  EXPECT_TRUE(parse_ltl("a && !b || true").is_pure_boolean());
  EXPECT_FALSE(parse_ltl("a && X b").is_pure_boolean());
  EXPECT_FALSE(parse_ltl("F a").is_pure_boolean());
}

TEST(Pnf, PushesNegations) {
  const Formula f = to_pnf(parse_ltl("!(a U (b && X c))"));
  EXPECT_TRUE(f.is_positive_normal_form());
  EXPECT_EQ(f, f_release(f_not(f_atom("a")),
                         f_or(f_not(f_atom("b")), f_next(f_not(f_atom("c"))))));
}

TEST(Eval, Basics) {
  // (ab)^ω: G F a, G F b hold; G a fails; X b holds; a U b holds.
  const Word u;
  const Word v = w({"a", "b"});
  EXPECT_TRUE(eval_ltl(parse_ltl("G F a"), u, v, lab()));
  EXPECT_TRUE(eval_ltl(parse_ltl("G F b"), u, v, lab()));
  EXPECT_FALSE(eval_ltl(parse_ltl("G a"), u, v, lab()));
  EXPECT_TRUE(eval_ltl(parse_ltl("X b"), u, v, lab()));
  EXPECT_TRUE(eval_ltl(parse_ltl("a U b"), u, v, lab()));
  EXPECT_TRUE(eval_ltl(parse_ltl("a"), u, v, lab()));
  EXPECT_FALSE(eval_ltl(parse_ltl("b"), u, v, lab()));
}

TEST(Eval, UltimatelyPeriodic) {
  // a b^ω: F G b holds, G F a fails.
  const Word u = w({"a"});
  const Word v = w({"b"});
  EXPECT_TRUE(eval_ltl(parse_ltl("F G b"), u, v, lab()));
  EXPECT_FALSE(eval_ltl(parse_ltl("G F a"), u, v, lab()));
  EXPECT_TRUE(eval_ltl(parse_ltl("a && X G b"), u, v, lab()));
}

TEST(Eval, ReleaseSemantics) {
  // a R b on b^ω: holds (b forever). On b a^ω: holds only if a&&b at the
  // release point... b a^ω: position 0 has b, position 1 has a but not b —
  // needs a at some j with b up to and including j; position 0: b ∧ ¬a;
  // position 1: ¬b → fails unless released at 0 (a fails there). So false.
  EXPECT_TRUE(eval_ltl(parse_ltl("a R b"), {}, w({"b"}), lab()));
  EXPECT_FALSE(eval_ltl(parse_ltl("a R b"), w({"b"}), w({"a"}), lab()));
  // (a&&b) b^ω — released at position 0.
  EXPECT_TRUE(eval_ltl(parse_ltl("b R a"), w({"a"}), w({"a"}), lab()));
}

TEST(Translate, SimpleFormulas) {
  const Buchi gfa = translate_ltl(parse_ltl("G F a"), lab());
  EXPECT_TRUE(accepts_lasso(gfa, {}, w({"a", "b"})));
  EXPECT_FALSE(accepts_lasso(gfa, w({"a"}), w({"b"})));

  const Buchi xb = translate_ltl(parse_ltl("X b"), lab());
  EXPECT_TRUE(accepts_lasso(xb, w({"a", "b"}), w({"a"})));
  EXPECT_FALSE(accepts_lasso(xb, w({"a", "a"}), w({"b"})));

  const Buchi until = translate_ltl(parse_ltl("a U b"), lab());
  EXPECT_TRUE(accepts_lasso(until, w({"a", "a", "b"}), w({"a"})));
  EXPECT_FALSE(accepts_lasso(until, {}, w({"a"})));
}

TEST(Translate, NegatedIsComplementOnSamples) {
  Rng rng(7);
  const std::vector<std::string> atoms = {"a", "b"};
  for (int i = 0; i < 40; ++i) {
    const Formula f = random_formula(rng, atoms, 3);
    const Buchi pos = translate_ltl(f, lab());
    const Buchi neg = translate_ltl_negated(f, lab());
    const auto [u, v] = random_lasso(rng, ab(), 3, 3);
    EXPECT_NE(accepts_lasso(pos, u, v), accepts_lasso(neg, u, v))
        << f.to_string();
  }
}

TEST(Parser, PrintParseRoundTripOnRandomFormulas) {
  Rng rng(2718281828);
  for (int i = 0; i < 200; ++i) {
    const Formula f = random_formula(rng, {"a", "b", "req", "ack"}, 5);
    EXPECT_EQ(parse_ltl(f.to_string()), f) << f.to_string();
  }
}

TEST(Parser, GarbageThrowsCleanly) {
  Rng rng(31415926);
  const char alphabet[] = "abXFGU()!&|-> <";
  for (int i = 0; i < 300; ++i) {
    std::string junk;
    const std::size_t len = rng.next_below(24);
    for (std::size_t k = 0; k < len; ++k) {
      junk += alphabet[rng.next_below(sizeof(alphabet) - 1)];
    }
    try {
      const Formula f = parse_ltl(junk);
      // Whatever parses must at least round-trip.
      EXPECT_EQ(parse_ltl(f.to_string()), f) << junk;
    } catch (const LtlParseError&) {
      // Expected for most inputs.
    }
  }
}

// ---------------------------------------------------------------------------
// The central translation property: automaton membership == direct
// evaluation, for random formulas and random lassos.

class TranslateProperty : public ::testing::TestWithParam<std::uint64_t> {};

Formula nest_next(Formula f, int depth) {
  for (int i = 0; i < depth; ++i) f = f_next(f);
  return f;
}

TEST_P(TranslateProperty, AgreesWithEvaluator) {
  Rng rng(GetParam() * 65537 + 1);
  const std::vector<std::string> atoms = {"a", "b"};
  const Formula f = random_formula(rng, atoms, 4);
  // X^66 alone has 67 distinct subformulas: its formula sets span two words.
  const Formula wide = f_or(f, nest_next(random_formula(rng, atoms, 2), 66));
  for (const Formula g : {f, wide}) {
    const Buchi automaton = translate_ltl(g, lab());
    const Buchi negated = translate_ltl_negated(g, lab());
    for (int i = 0; i < 30; ++i) {
      const auto [u, v] = random_lasso(rng, ab(), 4, 4);
      const bool holds = eval_ltl(g, u, v, lab());
      EXPECT_EQ(accepts_lasso(automaton, u, v), holds)
          << g.to_string() << " on u=" << ab()->format(u)
          << " v=" << ab()->format(v);
      EXPECT_EQ(accepts_lasso(negated, u, v), !holds)
          << "!(" << g.to_string() << ") on u=" << ab()->format(u)
          << " v=" << ab()->format(v);
    }
  }
}

TEST(Translate, IndependentOfInterningOrder) {
  // The same formula up to renaming p1→p2, q1→q2, r1→r2. The second copy is
  // assembled innermost-last, so its nodes are interned (and allocated) in a
  // different order than the parser interns the first.
  const Formula f1 = parse_ltl("(p1 U q1) && G F (r1 || !p1) && X (q1 R r1)");
  const Formula x2 = f_next(f_release(f_atom("q2"), f_atom("r2")));
  const Formula gf2 =
      f_always(f_eventually(f_or(f_atom("r2"), f_not(f_atom("p2")))));
  const Formula u2 = f_until(f_atom("p2"), f_atom("q2"));
  const Formula f2 = f_and(f_and(u2, gf2), x2);
  std::string renamed = f1.to_string();
  std::replace(renamed.begin(), renamed.end(), '1', '2');
  ASSERT_EQ(f2.to_string(), renamed);

  // Matching labelings on one alphabet: letter i carries the same atoms.
  const AlphabetRef sigma = Alphabet::make({"s0", "s1", "s2", "s3", "s4"});
  const std::vector<std::vector<std::string>> sets = {
      {}, {"p"}, {"q"}, {"p", "r"}, {"q", "r"}};
  std::vector<std::vector<std::string>> labels1;
  std::vector<std::vector<std::string>> labels2;
  for (const auto& set : sets) {
    labels1.emplace_back();
    labels2.emplace_back();
    for (const std::string& atom : set) {
      labels1.back().push_back(atom + "1");
      labels2.back().push_back(atom + "2");
    }
  }
  const Labeling lambda1(sigma, labels1);
  const Labeling lambda2(sigma, labels2);

  EXPECT_EQ(translate_ltl(f1, lambda1).to_string(),
            translate_ltl(f2, lambda2).to_string());
  EXPECT_EQ(translate_ltl_negated(f1, lambda1).to_string(),
            translate_ltl_negated(f2, lambda2).to_string());
  const GenBuchi gen1 = translate_ltl_gen(f1, lambda1);
  const GenBuchi gen2 = translate_ltl_gen(f2, lambda2);
  EXPECT_EQ(gen1.structure.to_string(), gen2.structure.to_string());
  EXPECT_EQ(gen1.sets, gen2.sets);
}

TEST(Translate, OneTableauServesEveryLabeling) {
  // λ_Σ on two alphabets (one with an extra letter and another symbol
  // order) and a homomorphism labeling λ_h with a hidden letter.
  const AlphabetRef reordered = Alphabet::make({"b", "c", "a"});
  const AlphabetRef source = Alphabet::make({"a", "tau", "b", "c"});
  Homomorphism h(source, ab());
  h.rename("a", "a");
  h.rename("b", "b");
  h.rename("c", "a");
  const std::vector<Labeling> labelings = {
      lab(), Labeling::canonical(reordered), hom_labeling(h)};

  Rng rng(1789);
  for (int i = 0; i < 60; ++i) {
    const Formula f = random_formula(rng, {"a", "b"}, 3);
    const Tableau tableau = build_tableau(f);
    for (const Labeling& lambda : labelings) {
      const Buchi shared = degeneralize(instantiate(tableau, lambda));
      const Buchi fresh = translate_ltl(f, lambda);
      for (int j = 0; j < 10; ++j) {
        const auto [u, v] = random_lasso(rng, lambda.alphabet(), 3, 3);
        const bool holds = eval_ltl(f, u, v, lambda);
        EXPECT_EQ(accepts_lasso(shared, u, v), holds)
            << f.to_string() << " on u=" << lambda.alphabet()->format(u)
            << " v=" << lambda.alphabet()->format(v);
        EXPECT_EQ(accepts_lasso(fresh, u, v), holds) << f.to_string();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranslateProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

// ---------------------------------------------------------------------------
// T / R̄ transformation (Section 7).

TEST(Transform, BoxDiamondShape) {
  // R̄(G F result) = G(eps ∨ F(¬eps ∧ (eps U (¬eps ∧ result)))) — check the
  // structural skeleton via string rendering of the real result.
  const Formula eta = to_pnf(parse_ltl("G F result"));
  const Formula rbar = transform_rbar(eta);
  EXPECT_TRUE(rbar.is_positive_normal_form());
  // The transformed formula must mention eps.
  const auto atoms = rbar.atoms();
  EXPECT_NE(std::find(atoms.begin(), atoms.end(), std::string(kEpsilonAtom)),
            atoms.end());
}

TEST(Transform, PureBooleanWrapped) {
  const Formula eta = f_atom("q");
  const Formula rbar = transform_rbar(eta);
  // eps U (!eps && q)
  EXPECT_EQ(rbar, f_until(f_atom(kEpsilonAtom),
                          f_and(f_not(f_atom(kEpsilonAtom)), f_atom("q"))));
}

/// Concrete alphabet {p, q, tau} with h hiding tau: checks Lemma 7.5 at the
/// word level: η on h(x) ⟺ R̄(η) on x.
class TransformProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransformProperty, Lemma75WordLevel) {
  Rng rng(GetParam() * 2654435761 + 17);

  // Concrete alphabet with two visible and up to two hidden letters.
  auto source = Alphabet::make({"p", "q", "tau1", "tau2"});
  auto target = Alphabet::make({"p", "q"});
  Homomorphism h(source, target);
  h.rename("p", "p");
  h.rename("q", "q");
  // tau1/tau2 stay hidden.

  const Labeling concrete_lab = hom_labeling(h);
  const Labeling abstract_lab = Labeling::canonical(target);

  const std::vector<std::string> atoms = {"p", "q"};
  const Formula eta = to_pnf(random_formula(rng, atoms, 3));
  const Formula rbar = transform_rbar(eta);

  for (int i = 0; i < 40; ++i) {
    const auto [u, v] = random_lasso(rng, source, 4, 4);
    const auto image = h.apply_lasso(u, v);
    if (!image) continue;  // h undefined on x (period fully hidden)
    const bool abstract_truth =
        eval_ltl(eta, image->first, image->second, abstract_lab);
    const bool concrete_truth = eval_ltl(rbar, u, v, concrete_lab);
    EXPECT_EQ(abstract_truth, concrete_truth)
        << "eta=" << eta.to_string() << " rbar=" << rbar.to_string()
        << " u=" << source->format(u) << " v=" << source->format(v);
  }
}

TEST_P(TransformProperty, RenamingHomomorphism) {
  // h that renames both letters to one target letter (no hiding): R̄ must
  // still agree with projection.
  Rng rng(GetParam() + 31337);
  auto source = Alphabet::make({"x", "y", "z"});
  auto target = Alphabet::make({"c", "d"});
  Homomorphism h(source, target);
  h.rename("x", "c");
  h.rename("y", "c");
  h.rename("z", "d");

  const Labeling concrete_lab = hom_labeling(h);
  const Labeling abstract_lab = Labeling::canonical(target);
  const std::vector<std::string> atoms = {"c", "d"};
  const Formula eta = to_pnf(random_formula(rng, atoms, 3));
  const Formula rbar = transform_rbar(eta);

  for (int i = 0; i < 25; ++i) {
    const auto [u, v] = random_lasso(rng, source, 3, 3);
    const auto image = h.apply_lasso(u, v);
    ASSERT_TRUE(image.has_value());  // nothing is hidden
    EXPECT_EQ(eval_ltl(eta, image->first, image->second, abstract_lab),
              eval_ltl(rbar, u, v, concrete_lab))
        << eta.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

// ---------------------------------------------------------------------------
// Σ-normal form (the remark after Definition 7.2).

TEST(SigmaNormalForm, SubstitutesAtomDisjunctions) {
  // Letters: a carries {p}, b carries {p, q}, c carries {}.
  auto sigma = Alphabet::make({"a", "b", "c"});
  const Labeling lambda(sigma, {{"p"}, {"p", "q"}, {}});
  const Formula eta = parse_ltl("G F p && F q");
  const Formula snf = to_sigma_normal_form(eta, lambda);
  // p ↦ a ∨ b, q ↦ b.
  EXPECT_EQ(snf, to_pnf(f_and(f_always(f_eventually(
                                  f_or(f_atom("a"), f_atom("b")))),
                              f_eventually(f_atom("b")))));
  EXPECT_TRUE(snf.is_positive_normal_form());
}

class SigmaNormalFormProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SigmaNormalFormProperty, EquivalentUnderCanonicalLabeling) {
  Rng rng(GetParam() * 7046029 + 77);
  auto sigma = Alphabet::make({"x", "y", "z"});
  // Random labeling over atoms {p, q}.
  std::vector<std::vector<std::string>> labels(3);
  for (auto& set : labels) {
    if (rng.chance(1, 2)) set.push_back("p");
    if (rng.chance(1, 2)) set.push_back("q");
  }
  const Labeling lambda(sigma, labels);
  const Labeling canonical = Labeling::canonical(sigma);

  const Formula eta = random_formula(rng, {"p", "q"}, 3);
  const Formula snf = to_sigma_normal_form(eta, lambda);
  for (int i = 0; i < 25; ++i) {
    const auto [u, v] = random_lasso(rng, sigma, 3, 3);
    EXPECT_EQ(eval_ltl(eta, u, v, lambda), eval_ltl(snf, u, v, canonical))
        << eta.to_string() << " vs " << snf.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SigmaNormalFormProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

// ---------------------------------------------------------------------------
// Intern-table thread safety. The hash-consing table is shared process-wide
// and must behave correctly under concurrent construction (the rlv::engine
// thread pool builds formulas from several workers). Run under TSan in CI.

TEST(LtlThreadSafety, ConcurrentInterningYieldsIdenticalNodes) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 300;
  std::vector<std::vector<const LtlNode*>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      seen[t].reserve(kRounds + 3);
      for (int i = 0; i < kRounds; ++i) {
        // A mix of fresh structure (thread-unique atoms force inserts) and
        // shared structure (identical formulas from every thread must
        // resolve to the same node).
        const Formula unique = f_until(
            f_atom("t" + std::to_string(t) + "_" + std::to_string(i)),
            f_atom("shared"));
        const Formula common =
            random_formula(rng, {"p", "q", "r"}, 1 + i % 4);
        EXPECT_TRUE(unique.valid());
        EXPECT_TRUE(common.valid());
        if (i % 100 == 0) {
          seen[t].push_back(
              f_and(f_atom("p"), f_eventually(f_atom("q"))).raw());
        }
      }
      seen[t].push_back(parse_ltl("G(p -> F q)").raw());
      seen[t].push_back(f_always(f_implies(f_atom("p"), f_eventually(
                                               f_atom("q")))).raw());
    });
  }
  for (auto& thread : threads) thread.join();
  // Pointer equality = structural equality must hold across threads.
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), seen[0].size());
    for (std::size_t i = 0; i < seen[t].size(); ++i) {
      EXPECT_EQ(seen[t][i], seen[0][i]) << "thread " << t << " slot " << i;
    }
  }
  // And the parser route agrees with the constructor route.
  EXPECT_EQ(seen[0][seen[0].size() - 2], seen[0].back());
}

}  // namespace
}  // namespace rlv
