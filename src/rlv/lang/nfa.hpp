#pragma once

// Nondeterministic finite automata over finite words. This is the shared
// structural representation for three roles in the paper:
//   * acceptors of regular languages L ⊆ Σ*,
//   * transition systems without acceptance conditions (prefix-closed L,
//     Section 6) — every state accepting,
//   * the finite-word skeleton of Büchi automata (rlv_omega wraps Nfa).
//
// States are dense uint32 ids. Transitions are stored structure-of-arrays
// style: while an automaton is being built, edges accumulate in flat
// append-only arrays; on first read access they are counting-sorted once
// into a symbol-indexed CSR layout — one contiguous edge array grouped by
// (state, symbol) plus an offsets table — so the hot kernels (subset
// stepping, inclusion, products) get the successor block of (q, a) as a
// contiguous span without scanning or chasing per-state vectors. Mutating
// after a read is allowed (the index is rebuilt lazily) but not free;
// builders should finish construction before handing the automaton to a
// kernel. Reads are thread-safe after the index exists or when the first
// concurrent readers race to build it (double-checked lock); mutation is
// never thread-safe, as before. No ε-moves at this layer (homomorphic
// images perform ε-elimination eagerly, see rlv/hom/image.hpp).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "rlv/lang/alphabet.hpp"
#include "rlv/util/bitset.hpp"

namespace rlv {

using State = std::uint32_t;
inline constexpr State kNoState = 0xffffffffU;

struct Transition {
  Symbol symbol;
  State target;

  friend bool operator==(const Transition&, const Transition&) = default;
  friend auto operator<=>(const Transition&, const Transition&) = default;
};

class Nfa {
 public:
  explicit Nfa(AlphabetRef sigma) : sigma_(std::move(sigma)) {}

  Nfa(const Nfa& o) { copy_from(o); }
  Nfa& operator=(const Nfa& o) {
    if (this != &o) copy_from(o);
    return *this;
  }
  Nfa(Nfa&& o) noexcept { move_from(std::move(o)); }
  Nfa& operator=(Nfa&& o) noexcept {
    if (this != &o) move_from(std::move(o));
    return *this;
  }

  [[nodiscard]] const AlphabetRef& alphabet() const { return sigma_; }

  /// Adds a fresh state and returns its id.
  State add_state(bool accepting = false);

  void add_transition(State from, Symbol symbol, State to);

  /// Adds the transition only if not already present (linear scan; intended
  /// for small hand-built automata and generators).
  void add_transition_unique(State from, Symbol symbol, State to);

  void set_initial(State s) { initial_.push_back(s); }
  void set_accepting(State s, bool accepting = true) {
    accepting_[s] = accepting;
  }

  [[nodiscard]] std::size_t num_states() const { return accepting_.size(); }
  [[nodiscard]] std::size_t num_transitions() const;

  [[nodiscard]] const std::vector<State>& initial() const { return initial_; }
  [[nodiscard]] bool is_accepting(State s) const { return accepting_[s]; }

  /// All out-edges of `s`, grouped by symbol (contiguous CSR block). The
  /// span is invalidated by any later mutation of the automaton.
  [[nodiscard]] std::span<const Transition> out(State s) const {
    ensure_index();
    const std::size_t row = static_cast<std::size_t>(s) * sigma_->size();
    return {csr_.data() + sym_off_[row],
            csr_.data() + sym_off_[row + sigma_->size()]};
  }

  /// The contiguous successor block of (`s`, `symbol`) — the unit the
  /// subset-construction kernels iterate. May contain duplicate targets if
  /// parallel edges were added.
  [[nodiscard]] std::span<const Transition> block(State s,
                                                  Symbol symbol) const {
    ensure_index();
    const std::size_t cell =
        static_cast<std::size_t>(s) * sigma_->size() + symbol;
    return {csr_.data() + sym_off_[cell], csr_.data() + sym_off_[cell + 1]};
  }

  /// Flat id of `s`'s first out-edge in the CSR edge array: the edges of `s`
  /// are first_edge(s) .. first_edge(s + 1), in out() order, and
  /// first_edge(num_states()) is the number of edges.
  [[nodiscard]] std::uint32_t first_edge(State s) const {
    ensure_index();
    return sym_off_[static_cast<std::size_t>(s) * sigma_->size()];
  }

  /// Every out-edge in first_edge numbering: edge e is edges()[e]. The span
  /// is invalidated by any later mutation of the automaton.
  [[nodiscard]] std::span<const Transition> edges() const {
    ensure_index();
    return csr_;
  }

  /// Builds the CSR transition index now (idempotent). Kernels call this on
  /// the coordinating thread before fanning out workers so the lazy build
  /// never runs inside a hot loop.
  void finalize() const { ensure_index(); }

  /// Successor set of `from` under `symbol` as a sorted, deduplicated vector.
  [[nodiscard]] std::vector<State> successors(State from, Symbol symbol) const;

  /// Advances a state set by one symbol.
  [[nodiscard]] DynBitset step(const DynBitset& states, Symbol symbol) const;

  /// Raw-word variant of step() for kernels that keep state sets in interned
  /// or scratch storage: reads `num_states()` bits from `src`, writes the
  /// successor set under `symbol` into `dst` (both `(num_states()+63)/64`
  /// words; dst is overwritten). `src` and `dst` must not alias.
  void step_words(const std::uint64_t* src, Symbol symbol,
                  std::uint64_t* dst) const;

  /// Set of states reached from the initial states by reading `w` (all runs).
  [[nodiscard]] DynBitset run(const Word& w) const;

  /// Classical membership test by state-set simulation.
  [[nodiscard]] bool accepts(const Word& w) const;

  /// States reachable from the initial states.
  [[nodiscard]] DynBitset reachable() const;

  /// States from which some accepting state is reachable (productive).
  [[nodiscard]] DynBitset productive() const;

  /// Bitset of the accepting states.
  [[nodiscard]] DynBitset accepting_set() const;

  /// Human-readable dump (for examples and debugging).
  [[nodiscard]] std::string to_string() const;

 private:
  void ensure_index() const {
    if (indexed_.load(std::memory_order_acquire)) return;
    std::lock_guard lock(index_mutex_);
    if (indexed_.load(std::memory_order_relaxed)) return;
    build_index();
    indexed_.store(true, std::memory_order_release);
  }

  void build_index() const;

  /// Re-opens the automaton for appends after it has been indexed: scatters
  /// the CSR edges back into the building arrays and drops the index.
  void reopen_for_append();

  void copy_from(const Nfa& o);
  void move_from(Nfa&& o);

  AlphabetRef sigma_;
  std::vector<bool> accepting_;
  std::vector<State> initial_;

  // Building representation: flat append-only parallel arrays (SoA).
  // Cleared once the CSR index is built; exactly one of the two
  // representations holds the edges at any time.
  mutable std::vector<State> build_src_;
  mutable std::vector<Transition> build_edge_;

  // Finalized representation: edges counting-sorted by (source, symbol),
  // stable within a (source, symbol) cell; sym_off_ has
  // num_states * |Σ| + 1 entries delimiting the per-symbol blocks.
  mutable std::vector<Transition> csr_;
  mutable std::vector<std::uint32_t> sym_off_;
  mutable std::atomic<bool> indexed_{false};
  mutable std::mutex index_mutex_;
};

}  // namespace rlv
