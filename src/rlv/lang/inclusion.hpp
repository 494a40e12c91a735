#pragma once

// Language inclusion L(a) ⊆ L(b) for NFAs — the engine behind the relative
// liveness check (Lemma 4.3 reduces relative liveness to an inclusion of
// prefix languages). Two interchangeable implementations:
//   * subset-construction product search (the PSPACE-canonical algorithm),
//   * the antichain algorithm of De Wulf–Doyen–Henzinger–Raskin, which keeps
//     only ⊆-minimal subset states per left-hand state.
// Both return a counterexample word when the inclusion fails; benches
// compare them head-to-head (experiment E4).
//
// Both explorations are worst-case exponential in |b|, so they accept an
// optional Budget (rlv/util/budget.hpp): every explored configuration is
// charged under Stage::kInclusion, the antichain/visited-set size is
// reported as the stage's frontier peak, and a tripped limit raises
// ResourceExhausted instead of running unbounded.
//
// Both searches run breadth-first. The subset search therefore returns a
// *shortest* counterexample. The antichain search drops a queued
// configuration once a smaller right-hand set for the same left state
// enters the antichain, so its counterexample is a genuine member of
// L(a) \ L(b) but not necessarily a shortest one (revalidate, don't
// byte-compare when cross-checking). Witness bookkeeping uses shared
// parent-pointer chains, so memory stays O(configurations) instead of
// O(configurations × depth).

#include <optional>

#include "rlv/lang/nfa.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {

enum class InclusionAlgorithm {
  kSubset,
  kAntichain,
};

struct InclusionResult {
  bool included = false;
  /// A word in L(a) \ L(b) when `included` is false.
  std::optional<Word> counterexample;
};

/// Decides L(a) ⊆ L(b). Both automata must share the same alphabet object;
/// throws std::invalid_argument otherwise (this guard survives NDEBUG).
[[nodiscard]] InclusionResult check_inclusion(
    const Nfa& a, const Nfa& b,
    InclusionAlgorithm algorithm = InclusionAlgorithm::kAntichain,
    Budget* budget = nullptr);

/// Convenience wrapper returning only the verdict.
[[nodiscard]] bool is_included(
    const Nfa& a, const Nfa& b,
    InclusionAlgorithm algorithm = InclusionAlgorithm::kAntichain,
    Budget* budget = nullptr);

/// L(a) = L(b) via two inclusion checks.
[[nodiscard]] bool nfa_equivalent(
    const Nfa& a, const Nfa& b,
    InclusionAlgorithm algorithm = InclusionAlgorithm::kAntichain,
    Budget* budget = nullptr);

}  // namespace rlv
