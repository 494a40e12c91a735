// Tests for the textual interchange format (rlv_io): parsing, error
// reporting, serialization round-trips, homomorphism files, and DOT export.

#include <gtest/gtest.h>

#include "rlv/gen/families.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/hom/simplicity.hpp"
#include "rlv/io/format.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/util/rng.hpp"

namespace rlv {
namespace {

constexpr const char* kSmallSystem = R"(
# a toy
alphabet: a b
states: 2
initial: 0
accepting: all
0 a 0
0 b 1
1 b 1
)";

TEST(IoParse, SmallSystem) {
  const Nfa nfa = parse_system(kSmallSystem);
  EXPECT_EQ(nfa.num_states(), 2u);
  EXPECT_EQ(nfa.num_transitions(), 3u);
  EXPECT_EQ(nfa.initial().size(), 1u);
  EXPECT_TRUE(nfa.accepts({nfa.alphabet()->id("a"), nfa.alphabet()->id("b"),
                           nfa.alphabet()->id("b")}));
  EXPECT_FALSE(nfa.accepts({nfa.alphabet()->id("b"), nfa.alphabet()->id("a")}));
}

TEST(IoParse, ExplicitAcceptingList) {
  const Nfa nfa = parse_system(R"(
alphabet: x
states: 3
initial: 0
accepting: 2
0 x 1
1 x 2
)");
  EXPECT_FALSE(nfa.accepts({}));
  EXPECT_FALSE(nfa.accepts({0}));
  EXPECT_TRUE(nfa.accepts({0, 0}));
}

TEST(IoParse, Errors) {
  EXPECT_THROW((void)parse_system("states: 1\ninitial: 0\naccepting: all\n"),
               IoError);  // missing alphabet
  EXPECT_THROW((void)parse_system("alphabet: a\ninitial: 0\naccepting: all\n"),
               IoError);  // missing states
  EXPECT_THROW((void)parse_system("alphabet: a\nstates: 1\naccepting: all\n"),
               IoError);  // missing initial
  EXPECT_THROW(
      (void)parse_system(
          "alphabet: a\nstates: 1\ninitial: 0\naccepting: all\n0 zz 0\n"),
      IoError);  // unknown action
  EXPECT_THROW(
      (void)parse_system(
          "alphabet: a\nstates: 1\ninitial: 0\naccepting: all\n0 a 7\n"),
      IoError);  // state out of range
  EXPECT_THROW(
      (void)parse_system(
          "alphabet: a\nstates: 1\ninitial: 0\naccepting: all\nbogus line x y\n"),
      IoError);
  try {
    (void)parse_system("alphabet: a\nstates: x\n");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(IoRoundTrip, PaperSystems) {
  for (const Nfa& original : {figure2_system(), figure3_system()}) {
    const Nfa reparsed = parse_system(serialize_system(original));
    const Nfa remapped = remap_alphabet(reparsed, original.alphabet());
    EXPECT_TRUE(nfa_equivalent(remapped, original));
  }
}

TEST(IoRoundTrip, RandomSystems) {
  Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    auto sigma = random_alphabet(2 + rng.next_below(2));
    const Nfa original = random_nfa(rng, 2 + rng.next_below(5), sigma);
    const Nfa reparsed = parse_system(serialize_system(original));
    const Nfa remapped = remap_alphabet(reparsed, original.alphabet());
    EXPECT_TRUE(nfa_equivalent(remapped, original));
  }
}

TEST(IoRoundTrip, RandomTransitionSystems) {
  // Transition systems (prefix-closed, all-accepting) round-trip both as
  // languages and structurally: a second serialization is byte-identical,
  // so parse ∘ serialize is idempotent on its own output.
  Rng rng(2026);
  for (int i = 0; i < 25; ++i) {
    auto sigma = random_alphabet(2 + rng.next_below(3));
    const Nfa original =
        random_transition_system(rng, 2 + rng.next_below(7), sigma);
    const std::string text = serialize_system(original);
    const Nfa reparsed = parse_system(text);
    EXPECT_EQ(serialize_system(reparsed), text);
    const Nfa remapped = remap_alphabet(reparsed, original.alphabet());
    EXPECT_TRUE(nfa_equivalent(remapped, original));
  }
}

TEST(IoRoundTrip, RandomBuchi) {
  Rng rng(7);
  for (int i = 0; i < 25; ++i) {
    auto sigma = random_alphabet(2 + rng.next_below(3));
    const Buchi original = random_buchi(rng, 1 + rng.next_below(6), sigma);
    const std::string text = serialize_buchi(original);
    const Buchi reparsed = parse_buchi(text);
    EXPECT_EQ(serialize_buchi(reparsed), text);
    EXPECT_EQ(reparsed.num_states(), original.num_states());
    EXPECT_EQ(reparsed.num_transitions(), original.num_transitions());
    for (State s = 0; s < original.num_states(); ++s) {
      EXPECT_EQ(reparsed.is_accepting(s), original.is_accepting(s));
    }
  }
}

TEST(IoParse, ErrorLineNumbersAreAccurate) {
  const auto line_of = [](const char* text) -> std::size_t {
    try {
      (void)parse_system(text);
    } catch (const IoError& e) {
      return e.line();
    }
    return static_cast<std::size_t>(-1);  // no error thrown
  };
  // Unknown action: reported at the transition's own line, even though the
  // check runs after the whole file is scanned.
  EXPECT_EQ(line_of("alphabet: a\nstates: 2\ninitial: 0\naccepting: all\n"
                    "0 a 1\n1 zz 0\n"),
            6u);
  // Transition target out of range, behind a comment and a blank line.
  EXPECT_EQ(line_of("alphabet: a\nstates: 2\ninitial: 0\naccepting: all\n"
                    "# comment\n\n0 a 9\n"),
            7u);
  // Unparsable state count.
  EXPECT_EQ(line_of("alphabet: a\nstates: x\n"), 2u);
  // Unrecognized line (wrong token count).
  EXPECT_EQ(line_of("alphabet: a\nstates: 2\ninitial: 0\naccepting: all\n"
                    "0 a 1 extra\n"),
            5u);
  // Duplicate alphabet.
  EXPECT_EQ(line_of("alphabet: a\nalphabet: b\n"), 2u);
  // Missing-section errors are whole-file problems: reported as line 0.
  EXPECT_EQ(line_of("alphabet: a\nstates: 1\ninitial: 0\n"), 0u);
}

TEST(IoParse, StateNumbersAreDigitStringsThatFitIn32Bits) {
  const auto line_of = [](const std::string& text) -> std::size_t {
    try {
      (void)parse_system(text);
    } catch (const IoError& e) {
      return e.line();
    }
    return static_cast<std::size_t>(-1);  // no error thrown
  };
  const std::string head = "alphabet: a\n";
  // Each of these once parsed into a wrapped or negated number without an
  // error: an edge from state 0, 2 states, and initial state 1.
  EXPECT_EQ(line_of(head + "states: 2\ninitial: 0\naccepting: all\n"
                           "4294967296 a 1\n"),
            5u);
  EXPECT_EQ(line_of(head + "states: 4294967298\ninitial: 0\n"
                           "accepting: all\n"),
            2u);
  EXPECT_EQ(line_of(head + "states: 2\ninitial: -4294967295\n"
                           "accepting: all\n"),
            3u);
  EXPECT_EQ(line_of(head + "states: +2\ninitial: 0\naccepting: all\n"), 2u);
  EXPECT_EQ(line_of(head + "states: 2\ninitial: 0\naccepting: -1\n"), 4u);
  // UINT32_MAX itself is a number; out of range is a later, separate error.
  EXPECT_EQ(line_of(head + "states: 2\ninitial: 4294967295\n"
                           "accepting: all\n"),
            0u);
}

TEST(IoHom, ParseAndApply) {
  const Nfa fig2 = figure2_system();
  const Homomorphism h = parse_homomorphism(R"(
target: request result reject
map: request -> request
map: result -> result
map: reject -> reject
hide: lock free yes no
)",
                                            fig2.alphabet());
  EXPECT_TRUE(h.hides(fig2.alphabet()->id("lock")));
  EXPECT_FALSE(h.hides(fig2.alphabet()->id("request")));
  // Behaves exactly like the built-in paper abstraction.
  EXPECT_TRUE(check_simplicity(fig2, h).simple);
}

TEST(IoHom, UnlistedLettersDefaultToHidden) {
  const Nfa fig2 = figure2_system();
  const Homomorphism h = parse_homomorphism(
      "target: request\nmap: request -> request\n", fig2.alphabet());
  EXPECT_TRUE(h.hides(fig2.alphabet()->id("lock")));
  EXPECT_TRUE(h.hides(fig2.alphabet()->id("result")));
}

TEST(IoHom, Errors) {
  const Nfa fig2 = figure2_system();
  EXPECT_THROW((void)parse_homomorphism("map: a -> b\n", fig2.alphabet()), IoError);
  EXPECT_THROW(
      (void)parse_homomorphism("target: x\nmap: nosuch -> x\n", fig2.alphabet()),
      IoError);
  EXPECT_THROW(
      (void)parse_homomorphism("target: x\nhide: nosuch\n", fig2.alphabet()),
      IoError);
}

TEST(IoBuchi, RoundTrip) {
  // A Büchi automaton with a non-trivial acceptance set survives the text
  // format (acceptance = the accepting: list).
  Buchi buchi(Alphabet::make({"a", "b"}));
  const State s0 = buchi.add_state(false);
  const State s1 = buchi.add_state(true);
  buchi.add_transition(s0, 0, s0);
  buchi.add_transition(s0, 0, s1);
  buchi.add_transition(s1, 1, s0);
  buchi.set_initial(s0);

  const Buchi reparsed = parse_buchi(serialize_buchi(buchi));
  EXPECT_EQ(reparsed.num_states(), 2u);
  EXPECT_FALSE(reparsed.is_accepting(0));
  EXPECT_TRUE(reparsed.is_accepting(1));
  EXPECT_EQ(reparsed.num_transitions(), 3u);
}

TEST(IoExplain, AnnotatesStates) {
  const Nfa fig2 = figure2_system();
  const auto& sigma = fig2.alphabet();
  const std::string trace = explain_word(
      fig2, {sigma->id("request"), sigma->id("yes"), sigma->id("result")});
  EXPECT_NE(trace.find("start        {0}"), std::string::npos);
  EXPECT_NE(trace.find("request"), std::string::npos);
  EXPECT_NE(trace.find("{1}"), std::string::npos);  // got_request, free

  const std::string bad =
      explain_word(fig2, {sigma->id("result")});
  EXPECT_NE(bad.find("left the system"), std::string::npos);

  const std::string lasso = explain_lasso(
      fig2, {sigma->id("lock")},
      {sigma->id("request"), sigma->id("no"), sigma->id("reject")});
  EXPECT_NE(lasso.find("period"), std::string::npos);
}

TEST(IoHoa, ExportShape) {
  Buchi buchi(Alphabet::make({"a", "b"}));
  const State s0 = buchi.add_state(false);
  const State s1 = buchi.add_state(true);
  buchi.add_transition(s0, 0, s1);
  buchi.add_transition(s1, 1, s0);
  buchi.set_initial(s0);
  const std::string hoa = to_hoa(buchi, "demo");
  EXPECT_NE(hoa.find("HOA: v1"), std::string::npos);
  EXPECT_NE(hoa.find("States: 2"), std::string::npos);
  EXPECT_NE(hoa.find("Start: 0"), std::string::npos);
  EXPECT_NE(hoa.find("AP: 2 \"a\" \"b\""), std::string::npos);
  EXPECT_NE(hoa.find("Acceptance: 1 Inf(0)"), std::string::npos);
  EXPECT_NE(hoa.find("State: 1 {0}"), std::string::npos);
  EXPECT_NE(hoa.find("[0&!1] 1"), std::string::npos);
  EXPECT_NE(hoa.find("[!0&1] 0"), std::string::npos);
  EXPECT_NE(hoa.find("--END--"), std::string::npos);
}

TEST(IoDot, ContainsStructure) {
  const std::string dot = to_dot(figure2_system(), "fig2");
  EXPECT_NE(dot.find("digraph fig2"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
  EXPECT_NE(dot.find("label=\"request\""), std::string::npos);
  EXPECT_NE(dot.find("init -> s0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Line normalization shared by the rlvd batch reader and the wire protocol.

TEST(IoStripCr, RemovesExactlyOneTrailingCarriageReturn) {
  // Regression: a batch file (or network peer) with CRLF line endings must
  // parse identically to one with LF — the stray '\r' used to reach the
  // line parsers as part of the last token.
  EXPECT_EQ(strip_cr("fig2.rlv --ltl \"G F result\"\r"),
            "fig2.rlv --ltl \"G F result\"");
  EXPECT_EQ(strip_cr("no ending"), "no ending");
  EXPECT_EQ(strip_cr("\r"), "");
  EXPECT_EQ(strip_cr(""), "");
  EXPECT_EQ(strip_cr("a\r\r"), "a\r");     // one per line-split, not greedy
  EXPECT_EQ(strip_cr("a\rb"), "a\rb");     // interior bytes untouched
}

// ---------------------------------------------------------------------------
// JSON string escaping (used by rlvd result lines).

TEST(IoJson, PassesPlainStringsThrough) {
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("G F result"), "G F result");
  EXPECT_EQ(json_escape("fig2.rlv"), "fig2.rlv");
}

TEST(IoJson, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("C:\\tmp\\x.rlv"), "C:\\\\tmp\\\\x.rlv");
  EXPECT_EQ(json_escape("\\\""), "\\\\\\\"");
}

TEST(IoJson, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape(std::string_view("\0", 1)), "\\u0000");
}

TEST(IoJson, HostileFileNameAndFormulaStayValidJson) {
  // A batch line can reference any file name and any formula text; the
  // result line must remain one well-formed JSON object.
  const std::string name = "evil\",\"holds\":true,\"x\":\"\n.rlv";
  const std::string formula = "G \"F\"\tresult \\ U";
  const std::string escaped_name = json_escape(name);
  const std::string escaped_formula = json_escape(formula);
  for (const std::string& s : {escaped_name, escaped_formula}) {
    EXPECT_EQ(s.find('\n'), std::string::npos);
    EXPECT_EQ(s.find('\t'), std::string::npos);
    // Every '"' is preceded by an odd run of backslashes (i.e. escaped).
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] != '"') continue;
      std::size_t backslashes = 0;
      for (std::size_t j = i; j-- > 0 && s[j] == '\\';) ++backslashes;
      EXPECT_EQ(backslashes % 2, 1u) << s << " at " << i;
    }
  }
  EXPECT_EQ(escaped_name,
            "evil\\\",\\\"holds\\\":true,\\\"x\\\":\\\"\\n.rlv");
}

}  // namespace
}  // namespace rlv
