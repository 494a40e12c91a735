#pragma once

// Machine closure (Definition 4.6, after Abadi–Lamport / Alur–Henzinger):
// (L_ω, Λ) with Λ ⊆ L_ω is machine closed iff pre(L_ω) ⊆ pre(Λ). The paper
// notes that P is a relative liveness property of L_ω exactly when
// (L_ω, P ∩ L_ω) is machine closed — validated as a property test.

#include "rlv/omega/buchi.hpp"

namespace rlv {

/// Is (L_ω(system), L_ω(live_part)) a machine closed live structure?
/// `live_part`'s language must be a subset of `system`'s (asserted only in
/// debug sampling by the caller; not enforced here).
[[nodiscard]] bool is_machine_closed(const Buchi& system,
                                     const Buchi& live_part);

}  // namespace rlv
