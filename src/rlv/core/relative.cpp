#include "rlv/core/relative.hpp"

#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/complement.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/omega/product.hpp"

namespace rlv {

namespace {

RelativeLivenessResult liveness_via_intersection(const Buchi& system,
                                                 const Buchi& intersection,
                                                 InclusionAlgorithm algorithm,
                                                 Budget* budget) {
  // Lemma 4.3: pre(L_ω) ⊆ pre(L_ω ∩ P); the reverse inclusion is automatic.
  const Nfa pre_system = prefix_nfa(system);
  const Nfa pre_both = prefix_nfa(intersection);
  const InclusionResult inc =
      check_inclusion(pre_system, pre_both, algorithm, budget);
  RelativeLivenessResult result;
  result.holds = inc.included;
  result.violating_prefix = inc.counterexample;
  return result;
}

RelativeSafetyResult safety_via_negation(const Buchi& system,
                                         const Buchi& intersection,
                                         const Buchi& negated_property,
                                         Budget* budget) {
  // Lemma 4.4: L_ω ∩ lim(pre(L_ω ∩ P)) ∩ ¬P = ∅, decided on the fly — the
  // triple product is explored lazily by the nested DFS instead of being
  // materialized, so a counterexample (or its absence) is often established
  // after touching a fraction of the product.
  const Buchi closure = limit_of_prefix_closed(prefix_nfa(intersection));
  RelativeSafetyResult result;
  auto lasso = find_accepting_lasso_product(
      {&system, &closure, &negated_property}, budget);
  result.holds = !lasso.has_value();
  result.counterexample = std::move(lasso);
  return result;
}

}  // namespace

RelativeLivenessResult relative_liveness(const Buchi& system,
                                         const Buchi& property,
                                         InclusionAlgorithm algorithm,
                                         Budget* budget) {
  try {
    return liveness_via_intersection(
        system, intersect_buchi(system, property, budget), algorithm, budget);
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
    return liveness_via_intersection(
        system, intersect_buchi(system, property, budget), algorithm, budget);
  } catch (const ResourceExhausted& e) {
    RelativeLivenessResult result;
    result.exhausted = e.stage();
    return result;
  }
}

RelativeSafetyResult relative_safety(const Buchi& system,
                                     const Buchi& property, Budget* budget) {
  try {
    return safety_via_negation(system,
                               intersect_buchi(system, property, budget),
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
    return safety_via_negation(
        system, intersect_buchi(system, property, budget), negated, budget);
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
