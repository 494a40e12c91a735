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
// and the validation of Theorem 5.1.

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
  explicit StreettAutomaton(Nfa structure);

  [[nodiscard]] const Nfa& structure() const { return structure_; }
  [[nodiscard]] std::size_t num_edges() const { return edge_source_.size(); }

  /// Source state / transition of an edge id.
  [[nodiscard]] State edge_source(EdgeId e) const { return edge_source_[e]; }
  [[nodiscard]] const Transition& edge(EdgeId e) const {
    return structure_.out(edge_source_[e])[edge_index_[e]];
  }

  /// First edge id of state `s`; edges of `s` are contiguous.
  [[nodiscard]] EdgeId first_edge(State s) const { return edge_offset_[s]; }

  void add_pair(StreettPair pair) { pairs_.push_back(std::move(pair)); }
  [[nodiscard]] const std::vector<StreettPair>& pairs() const { return pairs_; }

  /// An empty antecedent/goal bitset of the right size, for building pairs.
  [[nodiscard]] DynBitset edge_set() const { return DynBitset(num_edges()); }

 private:
  Nfa structure_;
  std::vector<State> edge_source_;
  std::vector<std::uint32_t> edge_index_;
  std::vector<EdgeId> edge_offset_;
  std::vector<StreettPair> pairs_;
};

/// True when some run from an initial state satisfies every Streett pair.
[[nodiscard]] bool streett_nonempty(const StreettAutomaton& a,
                                    Budget* budget = nullptr);

/// A witness lasso whose period traverses every edge of a fair SCC (hence
/// satisfies every pair), when one exists. The SCC search runs under
/// Stage::kEmptiness and ticks the optional Budget's deadline once per
/// edge it indexes.
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
