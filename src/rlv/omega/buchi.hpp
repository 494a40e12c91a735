#pragma once

// State-based Büchi automata over ω-words, plus generalized Büchi automata
// (used as the intermediate form of the LTL translation and of the
// intersection construction). A Büchi automaton shares the structural
// representation of an Nfa; the `accepting` flags are read as the Büchi
// acceptance set F (a run is accepting iff it visits F infinitely often).
//
// Transition systems in the sense of the paper's Section 6 (finite-state
// systems *without* acceptance) are represented as Büchi automata whose
// states are all accepting — their ω-language is then lim(L) of their
// prefix-closed finite-word language L (see rlv/omega/limit.hpp).

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rlv/lang/alphabet.hpp"
#include "rlv/lang/nfa.hpp"
#include "rlv/util/bitset.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {

class Buchi {
 public:
  explicit Buchi(AlphabetRef sigma) : aut_(std::move(sigma)) {}

  /// Reinterprets an NFA structure as a Büchi automaton: the NFA's accepting
  /// states become the Büchi acceptance set.
  static Buchi from_structure(Nfa nfa) { return Buchi(std::move(nfa)); }

  [[nodiscard]] const AlphabetRef& alphabet() const { return aut_.alphabet(); }

  State add_state(bool accepting = false) { return aut_.add_state(accepting); }
  void add_transition(State from, Symbol symbol, State to) {
    aut_.add_transition(from, symbol, to);
  }
  void set_initial(State s) { aut_.set_initial(s); }
  void set_accepting(State s, bool accepting = true) {
    aut_.set_accepting(s, accepting);
  }

  [[nodiscard]] std::size_t num_states() const { return aut_.num_states(); }
  [[nodiscard]] std::size_t num_transitions() const {
    return aut_.num_transitions();
  }
  [[nodiscard]] const std::vector<State>& initial() const {
    return aut_.initial();
  }
  [[nodiscard]] bool is_accepting(State s) const {
    return aut_.is_accepting(s);
  }
  [[nodiscard]] std::span<const Transition> out(State s) const {
    return aut_.out(s);
  }
  [[nodiscard]] std::span<const Transition> block(State s, Symbol a) const {
    return aut_.block(s, a);
  }

  /// The underlying finite-word structure. Reading it as an NFA yields the
  /// language of finite words that end in a Büchi-accepting state — rarely
  /// what you want directly; see prefix_nfa() in live.hpp for pre(L_ω).
  [[nodiscard]] const Nfa& structure() const { return aut_; }
  [[nodiscard]] Nfa& structure() { return aut_; }

  [[nodiscard]] std::string to_string() const { return aut_.to_string(); }

 private:
  explicit Buchi(Nfa nfa) : aut_(std::move(nfa)) {}

  Nfa aut_;
};

/// Generalized Büchi automaton: a run is accepting iff it visits every set
/// in `sets` infinitely often. With zero sets every infinite run accepts.
struct GenBuchi {
  explicit GenBuchi(AlphabetRef sigma) : structure(std::move(sigma)) {}

  Nfa structure;                 // accepting flags of `structure` are unused
  std::vector<DynBitset> sets;   // each sized to structure.num_states()
};

/// Degeneralization: the counter construction, building only the
/// (state, level) pairs reachable from the initial states — at most
/// |Q| * (k+1) for k acceptance sets. With k = 0 every state becomes
/// accepting and with k = 1 the one set becomes the acceptance set; both
/// return the structure unchanged. Each constructed pair is charged to
/// `budget` under the caller's current stage.
[[nodiscard]] Buchi degeneralize(GenBuchi gba, Budget* budget = nullptr);

}  // namespace rlv
