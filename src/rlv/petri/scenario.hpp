#pragma once

// Canonical 1-safe scenario families — the structurally realistic workload
// sources the abstraction pipeline (Sections 6–8) is exercised on. Each
// builder returns a NetFile: the net plus its abstraction annotation (the
// internal transition labels a derived homomorphism hides), so the whole
// net → unfold → abstract → verify pipeline is driven from one value.
//
//   * philosophers_net(n)   — dining philosophers, deadlockable, scales
//                             roughly 3.4× in marking-graph states per seat;
//                             the all-left deadlock gives the behavior
//                             language maximal words (see
//                             extend_maximal_words());
//   * bounded_buffer_net(b) — producer/consumer over a b-slot buffer
//                             (deliberately NOT 1-safe for b ≥ 2: the
//                             `space` place holds b tokens, exercising the
//                             unfolder's count-row fallback);
//   * ring_workflow_net(n)  — a token ring of n stations, each working then
//                             passing the token on (the pass_* labels are
//                             the hidden plumbing);
//   * flight_workflow_net() — a Symmetri-style flight turnaround workflow
//                             with concurrent fueling/catering legs and a
//                             next-leg loop; only takeoff/land stay visible.
//
// derive_abstraction() turns an annotation into the Σ → Σ' ∪ {ε} projection
// of Definition 6.1 over a concrete behavior alphabet (typically the
// unfolded graph's); simplicity (Def 6.3) is a property of the pair (L, h)
// and stays the caller's check.

#include <cstddef>
#include <string>
#include <vector>

#include "rlv/hom/homomorphism.hpp"
#include "rlv/petri/format.hpp"
#include "rlv/petri/net.hpp"

namespace rlv::petri {

[[nodiscard]] NetFile philosophers_net(std::size_t num_philosophers);
[[nodiscard]] NetFile bounded_buffer_net(std::size_t capacity);
[[nodiscard]] NetFile ring_workflow_net(std::size_t num_stations);
[[nodiscard]] NetFile flight_workflow_net();

/// Builds the abstraction h: Σ → Σ' ∪ {ε} that hides exactly `hidden` and
/// keeps every other letter of `sigma` (Definition 6.1, as a projection).
/// Throws std::invalid_argument when a hidden name is not in `sigma` —
/// annotations must stay in sync with the net's labels.
[[nodiscard]] Homomorphism derive_abstraction(
    const AlphabetRef& sigma, const std::vector<std::string>& hidden);

}  // namespace rlv::petri
