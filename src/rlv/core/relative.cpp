#include "rlv/core/relative.hpp"

#include <utility>
#include <vector>

#include "rlv/core/check.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/omega/live.hpp"

namespace rlv {

RelativeLivenessResult decide_relative_liveness(const Buchi& system,
                                                const Nfa& pre_system,
                                                const Buchi& property,
                                                Budget* budget) {
  // Lemma 4.3: pre(L_ω) ⊆ pre(L_ω ∩ P); the reverse inclusion is automatic.
  const Nfa pre_both = prefix_of_intersection(system, property, budget);
  const InclusionResult inc = check_inclusion(
      pre_system, pre_both, InclusionAlgorithm::kAntichain, budget);
  RelativeLivenessResult result;
  result.holds = inc.included;
  result.violating_prefix = inc.counterexample;
  return result;
}

RelativeSafetyResult decide_relative_safety(const Buchi& system,
                                            const Buchi& property,
                                            const Buchi& negated_property,
                                            Budget* budget) {
  // Lemma 4.4: L_ω ∩ lim(pre(L_ω ∩ P)) ∩ ¬P = ∅, decided on the fly. The
  // prefix automaton is already trim and live, so read with every state
  // accepting it is lim(pre(L_ω ∩ P)) as it stands.
  const Buchi closure =
      Buchi::from_structure(prefix_of_intersection(system, property, budget));
  std::vector<const Buchi*> operands{&closure, &negated_property};
  if (!all_accepting(system)) operands.insert(operands.begin(), &system);
  auto lasso = find_accepting_lasso_product(operands, budget);
  RelativeSafetyResult result;
  result.holds = !lasso.has_value();
  result.counterexample = std::move(lasso);
  return result;
}

namespace {

/// Runs `decide`, reporting a tripped budget through `exhausted`.
template <class Result, class Decide>
Result governed(Decide&& decide) {
  try {
    return decide();
  } catch (const ResourceExhausted& e) {
    Result result;
    result.exhausted = e.stage();
    return result;
  }
}

RelativeLivenessResult liveness(CheckOperands operands, Budget* budget) {
  return governed<RelativeLivenessResult>([&] {
    CheckResult checked =
        check(CheckKind::kRelativeLiveness, operands, budget);
    return RelativeLivenessResult{checked.holds,
                                  std::move(checked.violating_prefix),
                                  std::nullopt};
  });
}

/// A relative-safety or satisfaction check: its result is a lasso.
template <class Result>
Result lasso_check(CheckKind kind, CheckOperands operands, Budget* budget) {
  return governed<Result>([&] {
    CheckResult checked = check(kind, operands, budget);
    return Result{checked.holds, std::move(checked.counterexample),
                  std::nullopt};
  });
}

}  // namespace

RelativeLivenessResult relative_liveness(const Buchi& system,
                                         const Buchi& property,
                                         Budget* budget) {
  return liveness(CheckOperands::of_automaton(system, property, budget),
                  budget);
}

RelativeLivenessResult relative_liveness(const Buchi& system, Formula f,
                                         const Labeling& lambda,
                                         Budget* budget) {
  return liveness(CheckOperands::of_formula(system, f, lambda, budget),
                  budget);
}

RelativeSafetyResult relative_safety(const Buchi& system,
                                     const Buchi& property, Budget* budget) {
  return lasso_check<RelativeSafetyResult>(
      CheckKind::kRelativeSafety,
      CheckOperands::of_automaton(system, property, budget), budget);
}

RelativeSafetyResult relative_safety(const Buchi& system, Formula f,
                                     const Labeling& lambda, Budget* budget) {
  return lasso_check<RelativeSafetyResult>(
      CheckKind::kRelativeSafety,
      CheckOperands::of_formula(system, f, lambda, budget), budget);
}

SatisfactionResult satisfies(const Buchi& system, const Buchi& property,
                             Budget* budget) {
  return lasso_check<SatisfactionResult>(
      CheckKind::kSatisfaction,
      CheckOperands::of_automaton(system, property, budget), budget);
}

SatisfactionResult satisfies(const Buchi& system, Formula f,
                             const Labeling& lambda, Budget* budget) {
  return lasso_check<SatisfactionResult>(
      CheckKind::kSatisfaction,
      CheckOperands::of_formula(system, f, lambda, budget), budget);
}

}  // namespace rlv
