#pragma once

// Transition fairness as Streett conditions. The paper's introduction
// motivates relative liveness with the delicacy of choosing a fairness
// notion ("weakly or strongly fair, transition or process fair…"); this
// module provides the two transition-level notions so that difference can
// be demonstrated and measured.
//
// STRONG transition fairness: every transition enabled infinitely often is
// taken infinitely often. A transition is enabled exactly when the run sits
// at its source state s, so for each edge e = (s, a, s'):
//
//   E_e = all edges leaving s   (s is visited infinitely often)
//   F_e = { e }                 (e is taken infinitely often)
//
// WEAK transition fairness (justice): every transition *continuously*
// enabled from some point on is taken infinitely often. "Continuously
// enabled" means the run eventually never leaves s, so the requirement for
// e = (s, a, s') is: infinitely often leave s, or take e infinitely often —
// a plain Büchi condition, encoded as the Streett pair
//
//   E_e = all edges             (always triggered on infinite runs)
//   F_e = (edges not leaving s) ∪ { e }.
//
// Strongly fair runs are weakly fair; Theorem 5.1 needs the strong notion.

#include "rlv/lang/nfa.hpp"
#include "rlv/omega/streett.hpp"

namespace rlv {

enum class FairnessKind {
  kStrongTransition,
  kWeakTransition,
};

/// Streett automaton over `structure` whose accepting runs are exactly the
/// fair runs for the chosen notion.
[[nodiscard]] StreettAutomaton make_fairness_streett(
    const Nfa& structure, FairnessKind kind = FairnessKind::kStrongTransition);

/// Adds the fairness pairs for the automaton's own structure to an existing
/// Streett automaton.
void add_fairness_pairs(StreettAutomaton& automaton, FairnessKind kind);

/// Strong *process* fairness: edges are partitioned (or grouped) into
/// processes; a process that is enabled infinitely often — the run visits
/// states with an outgoing process edge infinitely often — must act
/// (take one of its edges) infinitely often. One Streett pair per group:
///
///   E_P = all edges leaving states where P has an edge
///   F_P = the edges of P
///
/// Coarser than strong transition fairness (which is process fairness with
/// singleton groups): a process may satisfy it while starving one of its
/// own transitions.
void add_process_fairness_pairs(StreettAutomaton& automaton,
                                const std::vector<DynBitset>& process_edges);

/// Groups the automaton's edges by action-name prefix (e.g. one process per
/// "philosopher i" when actions are suffixed "_i"): edge belongs to group k
/// iff its action name starts with prefixes[k]. Edges matching no prefix
/// form no group.
[[nodiscard]] std::vector<DynBitset> group_edges_by_prefix(
    const StreettAutomaton& automaton,
    const std::vector<std::string>& prefixes);

}  // namespace rlv
