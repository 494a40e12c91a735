#include "rlv/core/check.hpp"

#include <utility>

#include "rlv/core/relative.hpp"
#include "rlv/fair/fair_check.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/complement.hpp"
#include "rlv/omega/live.hpp"

namespace rlv {

std::optional<CheckKind> parse_check_kind(std::string_view name) {
  if (name == "rl") return CheckKind::kRelativeLiveness;
  if (name == "rs") return CheckKind::kRelativeSafety;
  if (name == "sat") return CheckKind::kSatisfaction;
  if (name == "fair") return CheckKind::kFairStrong;
  if (name == "fairweak") return CheckKind::kFairWeak;
  return std::nullopt;
}

std::string_view check_kind_name(CheckKind kind) {
  switch (kind) {
    case CheckKind::kRelativeLiveness:
      return "rl";
    case CheckKind::kRelativeSafety:
      return "rs";
    case CheckKind::kSatisfaction:
      return "sat";
    case CheckKind::kFairStrong:
      return "fair";
    case CheckKind::kFairWeak:
      return "fairweak";
  }
  return "?";
}

CheckOperands::CheckOperands(const Buchi& behaviors, Builder<Nfa> prefixes,
                             Builder<Buchi> property, Builder<Buchi> negated)
    : behaviors_(behaviors),
      build_prefixes_(std::move(prefixes)),
      build_property_(std::move(property)),
      build_negated_(std::move(negated)) {}

namespace {

/// pre(L_ω) of a behaviors automaton nobody has cached.
CheckOperands::Builder<Nfa> plain_prefixes(const Buchi& behaviors,
                                           Budget* budget) {
  return [&behaviors, budget] {
    StageScope scope(budget, Stage::kPreTrim);
    return std::make_shared<const Nfa>(prefix_nfa(behaviors));
  };
}

}  // namespace

CheckOperands CheckOperands::of_formula(const Buchi& behaviors, Formula f,
                                        const Labeling& lambda,
                                        Budget* budget) {
  return {behaviors, plain_prefixes(behaviors, budget),
          [f, &lambda, budget] {
            return std::make_shared<const Buchi>(
                translate_ltl(f, lambda, budget));
          },
          [f, &lambda, budget] {
            return std::make_shared<const Buchi>(
                translate_ltl_negated(f, lambda, budget));
          }};
}

CheckOperands CheckOperands::of_automaton(const Buchi& behaviors,
                                          const Buchi& property,
                                          Budget* budget) {
  return {behaviors, plain_prefixes(behaviors, budget),
          [&property] {
            // Not owned: the caller keeps the automaton alive.
            return std::shared_ptr<const Buchi>(std::shared_ptr<const Buchi>(),
                                                &property);
          },
          [&property, budget] {
            return std::make_shared<const Buchi>(
                complement_buchi(property, budget));
          }};
}

CheckResult check(CheckKind kind, CheckOperands& operands, Budget* budget) {
  const Buchi& behaviors = operands.behaviors();
  CheckResult result;
  switch (kind) {
    case CheckKind::kRelativeLiveness: {
      const Buchi& property = operands.property();
      RelativeLivenessResult rl = decide_relative_liveness(
          behaviors, operands.prefixes(), property, budget);
      result.holds = rl.holds;
      result.violating_prefix = std::move(rl.violating_prefix);
      break;
    }
    case CheckKind::kRelativeSafety: {
      const Buchi& property = operands.property();
      RelativeSafetyResult rs = decide_relative_safety(
          behaviors, property, operands.negated(), budget);
      result.holds = rs.holds;
      result.counterexample = std::move(rs.counterexample);
      break;
    }
    case CheckKind::kSatisfaction: {
      auto lasso = find_accepting_lasso_product(
          {&behaviors, &operands.negated()}, budget);
      result.holds = !lasso.has_value();
      result.counterexample = std::move(lasso);
      break;
    }
    case CheckKind::kFairStrong:
    case CheckKind::kFairWeak: {
      FairCheckResult fair = check_fair_satisfaction_negated(
          behaviors, operands.negated(),
          kind == CheckKind::kFairStrong ? FairnessKind::kStrongTransition
                                         : FairnessKind::kWeakTransition,
          budget);
      result.holds = fair.all_fair_runs_satisfy;
      result.counterexample = std::move(fair.counterexample);
      break;
    }
  }
  return result;
}

}  // namespace rlv
