#pragma once

// Model checking under strong fairness: does *every* strongly
// transition-fair run of a system satisfy a PLTL property? Decided by
// searching for a fair run of the system that is accepted by the automaton
// of ¬f — a Streett emptiness problem (fairness pairs lifted through the
// product, plus one Streett pair encoding the Büchi acceptance of ¬f). The
// product is pair_product(system, ¬f) (rlv/lang/ops.hpp), and the Streett
// automaton takes its edge table as it stands: a Streett edge id is the
// product's edge index, which names the system edge it projects to.
//
// This is the validation oracle for Theorem 5.1: the synthesized
// implementation must pass check_fair_satisfaction for the property it was
// built from.

#include <optional>

#include "rlv/fair/fairness.hpp"
#include "rlv/ltl/ast.hpp"
#include "rlv/omega/buchi.hpp"
#include "rlv/omega/emptiness.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {

struct FairCheckResult {
  bool all_fair_runs_satisfy = false;
  /// A strongly fair run violating the property, when one exists. The word
  /// is a lasso over the system alphabet.
  std::optional<Lasso> counterexample;
};

/// Does every fair infinite run of `system` (a transition system:
/// all-accepting Büchi automaton) satisfy f under λ? Fairness defaults to
/// the strong transition notion Theorem 5.1 relies on. With a Budget the
/// product is built under Stage::kProduct (one state charged per product
/// state) and the Streett search runs under Stage::kEmptiness; a tripped
/// budget throws ResourceExhausted.
[[nodiscard]] FairCheckResult check_fair_satisfaction(
    const Buchi& system, Formula f, const Labeling& lambda,
    FairnessKind kind = FairnessKind::kStrongTransition,
    Budget* budget = nullptr);

/// Variant with the violating behavior given as a Büchi automaton for ¬P.
[[nodiscard]] FairCheckResult check_fair_satisfaction_negated(
    const Buchi& system, const Buchi& negated_property,
    FairnessKind kind = FairnessKind::kStrongTransition,
    Budget* budget = nullptr);

/// Process-fairness flavor: does every strongly process-fair run satisfy f?
/// Processes are given as action-name prefixes (see group_edges_by_prefix);
/// an action belongs to every process whose prefix starts its name, and
/// actions matching no prefix belong to no process and are unconstrained.
/// A process counts wherever it is enabled in the system, also when ¬f
/// never lets it act: a run that leaves such a process enabled infinitely
/// often is not fair. The Streett search is the strong transition one with
/// one edge group per process; with one prefix per action and no name a
/// prefix of another, this is strong transition fairness.
[[nodiscard]] FairCheckResult check_process_fair_satisfaction(
    const Buchi& system, Formula f, const Labeling& lambda,
    const std::vector<std::string>& process_prefixes);

}  // namespace rlv
