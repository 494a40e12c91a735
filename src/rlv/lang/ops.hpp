#pragma once

// Core constructions on finite-word automata: determinization, Hopcroft
// minimization, complementation, boolean combinations, trimming, prefix
// languages, emptiness, equivalence, and bounded word enumeration (the
// latter drives the property-based tests).

#include <cstdint>
#include <optional>
#include <vector>

#include "rlv/lang/dfa.hpp"
#include "rlv/lang/nfa.hpp"
#include "rlv/util/budget.hpp"
#include "rlv/util/intern.hpp"

namespace rlv {

/// Subset construction. Only reachable, non-empty subsets become states, so
/// the result is a partial DFA for the same language. Exponential in the
/// worst case; each subset-state built is charged to `budget` (under the
/// caller's current stage).
[[nodiscard]] Dfa determinize(const Nfa& nfa, Budget* budget = nullptr);

/// Hopcroft minimization. Accepts a partial DFA; the result is again partial
/// (the rejecting sink, if any, is removed) and is the unique minimal DFA of
/// the language up to isomorphism. `budget` bounds wall time (the splitter
/// loop ticks the deadline).
[[nodiscard]] Dfa minimize(const Dfa& dfa, Budget* budget = nullptr);

/// Complement w.r.t. Σ*: completes and flips acceptance.
[[nodiscard]] Dfa complement(const Dfa& dfa);

/// The reachable part of the synchronous product of two automata over one
/// alphabet object: the one builder behind intersect, product_gen,
/// prefix_of_intersection and the fair product. Pairs (p, q) are interned to
/// dense ids in discovery order and expanded in id order; each of a's
/// per-symbol edge groups is joined with b's block for the same symbol, so a
/// pair's out-edges come out grouped by symbol, in the order of Nfa::out.
/// The fair checks move initial, edge_off and edges into a StreettAutomaton,
/// whose edge ids are then these edge indices. Each pair charges one state
/// to `budget` under the caller's stage.
struct PairProduct {
  /// Pair s is (left(s), right(s)), interned as a width-2 tuple.
  TupleInterner<State> pairs{2};
  /// Distinct ids of the initial pairs.
  std::vector<State> initial;
  /// The out-edges of pair s are edges[edge_off[s] .. edge_off[s+1]).
  std::vector<std::uint32_t> edge_off;
  std::vector<Transition> edges;
  /// Per edge: the flat id (Nfa::first_edge numbering) of the edge of `a`
  /// it projects to.
  std::vector<std::uint32_t> left_edge;

  [[nodiscard]] std::size_t size() const { return pairs.size(); }
  [[nodiscard]] State left(State s) const { return pairs.at(s)[0]; }
  [[nodiscard]] State right(State s) const { return pairs.at(s)[1]; }

  /// The product as an automaton over `sigma`, every state accepting or
  /// none; state ids and out() order are those of the pairs and edges.
  [[nodiscard]] Nfa to_nfa(const AlphabetRef& sigma, bool accepting) const;
};

/// Builds the reachable pair product of `a` and `b` (std::invalid_argument
/// unless they share one alphabet object).
[[nodiscard]] PairProduct pair_product(const Nfa& a, const Nfa& b,
                                       Budget* budget = nullptr);

/// Product-intersection of two NFAs over the same alphabet.
[[nodiscard]] Nfa intersect(const Nfa& a, const Nfa& b);

/// Disjoint union of two NFAs over the same alphabet.
[[nodiscard]] Nfa union_nfa(const Nfa& a, const Nfa& b);

/// Mirror language { reverse(w) | w ∈ L }: edges flipped, initial and
/// accepting swapped.
[[nodiscard]] Nfa reverse_nfa(const Nfa& a);

/// Concatenation L(a)·L(b) (ε-free construction: accepting states of `a`
/// borrow the out-edges of `b`'s initial states).
[[nodiscard]] Nfa concat_nfa(const Nfa& a, const Nfa& b);

/// Kleene star L(a)*.
[[nodiscard]] Nfa star_nfa(const Nfa& a);

/// Removes states that are not both reachable and productive. The language
/// is unchanged; the result has no useless states. An automaton with empty
/// language trims to zero states.
[[nodiscard]] Nfa trim(const Nfa& nfa);

/// Automaton for pre(L(nfa)): the set of prefixes of accepted words.
/// Implemented as trim + make-all-states-accepting.
[[nodiscard]] Nfa prefix_language(const Nfa& nfa);

/// True when L(nfa) = ∅.
[[nodiscard]] bool is_empty(const Nfa& nfa);

/// True when L(a) = L(b), via Hopcroft–Karp on the two (completed) DFAs.
[[nodiscard]] bool dfa_equivalent(const Dfa& a, const Dfa& b);

/// True when the residual languages of states `p` and `q` inside the two
/// (complete) DFAs coincide. `a` and `b` may be the same automaton.
[[nodiscard]] bool residual_equivalent(const Dfa& a, State p, const Dfa& b,
                                       State q);

/// True when L(nfa) is prefix-closed.
[[nodiscard]] bool is_prefix_closed(const Nfa& nfa);

/// All accepted words of length <= max_len in length-lex order. Guard for
/// tests only: throws std::length_error beyond `limit` words.
[[nodiscard]] std::vector<Word> enumerate_words(const Nfa& nfa,
                                                std::size_t max_len,
                                                std::size_t limit = 1u << 20);

/// Shortest accepted word, if the language is non-empty.
[[nodiscard]] std::optional<Word> shortest_word(const Nfa& nfa);

/// Number of accepted words of each length 0..max_len (may saturate at
/// UINT64_MAX on overflow).
[[nodiscard]] std::vector<std::uint64_t> count_words(const Nfa& nfa,
                                                     std::size_t max_len);

/// Rebuilds `nfa` over a different alphabet object, translating symbols by
/// name. Every symbol name used by `nfa` must exist in `target`. Allows
/// automata built independently (e.g. a Petri-net reachability graph and a
/// hand-drawn diagram) to be compared with the same-alphabet operations.
[[nodiscard]] Nfa remap_alphabet(const Nfa& nfa, AlphabetRef target);

}  // namespace rlv
