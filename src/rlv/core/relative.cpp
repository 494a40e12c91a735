#include "rlv/core/relative.hpp"

#include <vector>

#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/complement.hpp"
#include "rlv/omega/live.hpp"

namespace rlv {

RelativeLivenessResult decide_relative_liveness(const Buchi& system,
                                                const Nfa& pre_system,
                                                const Buchi& property,
                                                InclusionAlgorithm algorithm,
                                                Budget* budget) {
  // Lemma 4.3: pre(L_ω) ⊆ pre(L_ω ∩ P); the reverse inclusion is automatic.
  const Nfa pre_both = prefix_of_intersection(system, property, budget);
  const InclusionResult inc =
      check_inclusion(pre_system, pre_both, algorithm, budget);
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

Nfa system_prefixes(const Buchi& system, Budget* budget) {
  StageScope scope(budget, Stage::kPreTrim);
  return prefix_nfa(system);
}

}  // namespace

RelativeLivenessResult relative_liveness(const Buchi& system,
                                         const Buchi& property,
                                         InclusionAlgorithm algorithm,
                                         Budget* budget) {
  try {
    return decide_relative_liveness(system, system_prefixes(system, budget),
                                    property, algorithm, budget);
  } catch (const ResourceExhausted& e) {
    RelativeLivenessResult result;
    result.exhausted = e.stage();
    return result;
  }
}

RelativeLivenessResult relative_liveness(const Buchi& system, Formula f,
                                         const Labeling& lambda,
                                         InclusionAlgorithm algorithm,
                                         Budget* budget) {
  try {
    const Buchi property = translate_ltl(f, lambda, budget);
    return decide_relative_liveness(system, system_prefixes(system, budget),
                                    property, algorithm, budget);
  } catch (const ResourceExhausted& e) {
    RelativeLivenessResult result;
    result.exhausted = e.stage();
    return result;
  }
}

RelativeSafetyResult relative_safety(const Buchi& system,
                                     const Buchi& property, Budget* budget) {
  try {
    return decide_relative_safety(system, property,
                                  complement_buchi(property, budget), budget);
  } catch (const ResourceExhausted& e) {
    RelativeSafetyResult result;
    result.exhausted = e.stage();
    return result;
  }
}

RelativeSafetyResult relative_safety(const Buchi& system, Formula f,
                                     const Labeling& lambda, Budget* budget) {
  try {
    const Buchi property = translate_ltl(f, lambda, budget);
    const Buchi negated = translate_ltl_negated(f, lambda, budget);
    return decide_relative_safety(system, property, negated, budget);
  } catch (const ResourceExhausted& e) {
    RelativeSafetyResult result;
    result.exhausted = e.stage();
    return result;
  }
}

SatisfactionResult satisfies(const Buchi& system, const Buchi& property,
                             Budget* budget) {
  SatisfactionResult result;
  try {
    const Buchi complement = complement_buchi(property, budget);
    auto lasso = find_accepting_lasso_product({&system, &complement}, budget);
    result.holds = !lasso.has_value();
    result.counterexample = std::move(lasso);
  } catch (const ResourceExhausted& e) {
    result.exhausted = e.stage();
  }
  return result;
}

SatisfactionResult satisfies(const Buchi& system, Formula f,
                             const Labeling& lambda, Budget* budget) {
  SatisfactionResult result;
  try {
    const Buchi negated = translate_ltl_negated(f, lambda, budget);
    auto lasso = find_accepting_lasso_product({&system, &negated}, budget);
    result.holds = !lasso.has_value();
    result.counterexample = std::move(lasso);
  } catch (const ResourceExhausted& e) {
    result.exhausted = e.stage();
  }
  return result;
}

}  // namespace rlv
