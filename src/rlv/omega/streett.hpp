#pragma once

// Streett automata with *edge-based* acceptance pairs, and their emptiness
// check (recursive SCC restriction, Emerson–Lei style). A run is accepting
// iff for every pair (E, F): if it traverses an E-edge infinitely often, it
// traverses an F-edge infinitely often.
//
// This is the engine behind strong-fairness reasoning: strong transition
// fairness — "every transition enabled infinitely often is taken infinitely
// often" — is one Streett pair per transition (E = all edges leaving the
// transition's source, F = the transition itself), see rlv/fair/fairness.hpp
// and the validation of Theorem 5.1. The fair checks (rlv/fair/fair_check.hpp)
// hand the search their pairs as a refiner; pairs stored as bitsets are the
// reference encoding the tests compare it against.
//
// The automaton is one flat edge table in CSR form: the edges of state s are
// ids first_edge(s) .. first_edge(s + 1). The fair checks move a
// pair_product's table in (rlv/lang/ops.hpp), so a Streett edge id is the
// product's edge index; the SCC search runs the shared tarjan_scc
// (rlv/util/scc.hpp) over that table, restricted by an alive-edge bitset.

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "rlv/lang/nfa.hpp"
#include "rlv/omega/emptiness.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {

/// Flat edge id: edges are numbered in order of (source state, out index).
using EdgeId = std::uint32_t;

struct StreettPair {
  DynBitset antecedent;  // E: sized to the number of edges
  DynBitset goal;        // F
};

class StreettAutomaton {
 public:
  /// Takes a flat edge table over `sigma`: the edges of state s are
  /// edges[edge_off[s] .. edge_off[s + 1]), and edge_off has one entry per
  /// state plus one.
  StreettAutomaton(AlphabetRef sigma, std::vector<State> initial,
                   std::vector<EdgeId> edge_off, std::vector<Transition> edges);

  /// Copies `structure`'s edges; edge ids are its Nfa::first_edge ids.
  explicit StreettAutomaton(const Nfa& structure);

  [[nodiscard]] const AlphabetRef& alphabet() const { return sigma_; }
  [[nodiscard]] const std::vector<State>& initial() const { return initial_; }
  [[nodiscard]] std::size_t num_states() const { return edge_off_.size() - 1; }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

  /// Source state / transition of an edge id.
  [[nodiscard]] State edge_source(EdgeId e) const { return edge_source_[e]; }
  [[nodiscard]] const Transition& edge(EdgeId e) const { return edges_[e]; }

  /// First edge id of state `s`; edges of `s` are contiguous.
  [[nodiscard]] EdgeId first_edge(State s) const { return edge_off_[s]; }

  void add_pair(StreettPair pair) { pairs_.push_back(std::move(pair)); }
  [[nodiscard]] const std::vector<StreettPair>& pairs() const { return pairs_; }

  /// An empty antecedent/goal bitset of the right size, for building pairs.
  [[nodiscard]] DynBitset edge_set() const { return DynBitset(num_edges()); }

 private:
  AlphabetRef sigma_;
  std::vector<State> initial_;
  std::vector<EdgeId> edge_off_;
  std::vector<Transition> edges_;
  std::vector<State> edge_source_;
  std::vector<StreettPair> pairs_;
};

/// A witness lasso whose period traverses every edge of a fair SCC (hence
/// satisfies every pair), when one exists. The period is one covering walk
/// of the SCC: it takes an untraversed edge wherever there is one and
/// searches for the nearest state that still has one only when stuck. The
/// SCC search runs under Stage::kEmptiness and ticks the optional Budget's
/// deadline once per edge it collects into an SCC.
[[nodiscard]] std::optional<Lasso> find_fair_lasso(const StreettAutomaton& a,
                                                   Budget* budget = nullptr);

/// One refinement step of the SCC search: given the internal edges of a
/// non-trivial SCC, returns the edges that no accepting run confined to
/// those edges can take infinitely often — none when the SCC is accepting.
/// For the pairs of a StreettAutomaton that is the union of E ∩ scc over
/// the pairs (E, F) with E ∩ scc ≠ ∅ and F ∩ scc = ∅.
using SccRefiner = std::function<DynBitset(const DynBitset& scc_edges)>;

/// find_fair_lasso with the acceptance condition given as a refiner; the
/// automaton's own pairs are ignored. For conditions with too many pairs to
/// store as bitsets — one pair per system edge lifted through a product is
/// quadratic in memory (see rlv/fair/fair_check.cpp).
[[nodiscard]] std::optional<Lasso> find_fair_lasso(const StreettAutomaton& a,
                                                   const SccRefiner& refine,
                                                   Budget* budget = nullptr);

}  // namespace rlv
