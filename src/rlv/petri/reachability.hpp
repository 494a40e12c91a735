#pragma once

// Reachability-graph construction: unfolds a Petri net into the finite-state
// transition system of its firing sequences (the paper's Figure 1 → Figure 2
// step). The result is a prefix-closed, all-accepting automaton over the
// alphabet of transition labels — exactly the "system whose behaviors are
// the limit of a prefix-closed regular language" of Definition 6.2.
//
// Markings are interned, not mapped: while the net stays 1-safe the unfolder
// packs each marking into a fixed-width bitset and dedups through a
// TupleInterner of words (util/intern.hpp), so a state costs ⌈|P|/64⌉ words
// plus a 4-byte table slot instead of an owned std::vector node in a
// std::map. The first marking that puts ≥ 2 tokens on a place re-interns
// the store as token-count rows (same dense ids, no restart) and
// exploration continues unbounded-weight-correct.
//
// Construction is budget-governed: pass a Budget to charge every fresh
// marking under Stage::kPetriUnfold with frontier / memory observability;
// a deadline or state-cap trip raises ResourceExhausted — never OOM. The
// soft `max_states` option instead truncates: exploration stops interning
// and the graph comes back with `complete == false`.

#include <cstdint>
#include <vector>

#include "rlv/lang/nfa.hpp"
#include "rlv/petri/net.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {

struct ReachabilityGraph {
  /// Transition system: all states accepting; state 0 is the initial
  /// marking. Symbols are the net's transition labels.
  Nfa system;
  /// States with no enabled transition.
  std::vector<State> deadlocks;
  /// False when exploration hit `max_states` before exhausting the state
  /// space (net unbounded or too large).
  bool complete = true;
  /// True when every reached marking kept ≤ 1 token per place; markings are
  /// then stored as packed bitsets, otherwise as token-count rows.
  bool one_safe = true;
  std::size_t num_places = 0;

  /// Backing stores — exactly one is non-empty (bitsets when `one_safe`,
  /// else ⌈places⌉-stride count rows). Use marking()/tokens() to read.
  std::vector<std::uint64_t> marking_bits;
  std::vector<std::uint32_t> marking_counts;

  /// Materializes the marking of state `s`.
  [[nodiscard]] Marking marking(State s) const;
  /// Token count of place `p` at state `s` (no materialization).
  [[nodiscard]] std::uint32_t tokens(State s, PlaceId p) const;
};

struct ReachabilityOptions {
  std::size_t max_states = 1u << 20;
};

/// Builds the reachability graph; `system`'s alphabet contains the distinct
/// transition labels in first-use order. A non-null `budget` is charged one
/// state per fresh marking under Stage::kPetriUnfold and may throw
/// ResourceExhausted; `options.max_states` is the soft cap that truncates
/// with `complete == false` instead of throwing.
[[nodiscard]] ReachabilityGraph build_reachability_graph(
    const PetriNet& net, const ReachabilityOptions& options = {},
    Budget* budget = nullptr);

}  // namespace rlv
