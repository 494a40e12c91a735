#pragma once

// Live states and the prefix language pre(L_ω) of a Büchi automaton.
//
// A state is *live* when some accepting run starts from it. The prefix
// language pre(L_ω(A)) — central to Lemma 4.3 — is the finite-word language
// of A restricted to reachable live states, with every such state accepting.
//
// prefix_of_intersection builds pre(L_ω(A) ∩ L_ω(B)) — the object both
// Lemma 4.3 and Lemma 4.4 turn on — straight from the reachable pair
// product (pair_product, rlv/lang/ops.hpp), without degeneralizing it into
// a Büchi automaton first.

#include "rlv/lang/nfa.hpp"
#include "rlv/omega/buchi.hpp"

namespace rlv {

/// States from which an accepting run exists (regardless of reachability):
/// one tarjan_scc pass (rlv/util/scc.hpp) over the automaton's CSR edges, in
/// which an SCC is live when it has an internal edge and an accepting state,
/// or an edge into a live SCC.
[[nodiscard]] DynBitset live_states(const Buchi& a);

/// Removes states that are unreachable or not live. The ω-language is
/// unchanged. (The paper calls a Büchi automaton in this form "reduced".)
[[nodiscard]] Buchi trim_omega(const Buchi& a);

/// NFA accepting pre(L_ω(A)) = the finite prefixes of accepted ω-words.
[[nodiscard]] Nfa prefix_nfa(const Buchi& a);

/// NFA accepting pre(L_ω(a) ∩ L_ω(b)); equal as a language to
/// prefix_nfa(intersect_buchi(a, b)) but built in one pass:
///   * product (Stage::kProduct): pair_product of the two structures, one
///     state charged per reachable pair;
///   * liveness (Stage::kPreTrim): one tarjan_scc pass over the product's
///     edges as they stand. An SCC is live when it has an internal edge and
///     meets both acceptance sets, or has an edge into a live SCC; Tarjan
///     closes SCCs in reverse topological order, so the second clause is
///     already decided when it is read.
/// The result holds the live pairs only, every one accepting and reachable
/// (no degeneralization levels: the level copies of a pair share its prefix
/// language). It is therefore trim and live, so
/// Buchi::from_structure(result) is lim(pre(L_ω(a) ∩ L_ω(b))) as it stands.
/// Both operands must share one alphabet object (std::invalid_argument).
[[nodiscard]] Nfa prefix_of_intersection(const Buchi& a, const Buchi& b,
                                         Budget* budget = nullptr);

/// True when every state of `a` is Büchi-accepting — a transition system in
/// the sense of §6, whose ω-language is limit-closed: lim(pre(L_ω)) = L_ω.
[[nodiscard]] bool all_accepting(const Buchi& a);

/// True when L_ω(A) = ∅ — convenience alias for emptiness via live states.
[[nodiscard]] bool omega_empty(const Buchi& a);

}  // namespace rlv
