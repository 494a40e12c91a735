#pragma once

// Relative liveness and relative safety (Definitions 4.1/4.2), decided via
// the automata-theoretic characterizations of Lemmas 4.3/4.4:
//
//   P relative liveness of L_ω   ⟺   pre(L_ω) = pre(L_ω ∩ P)
//   P relative safety  of L_ω   ⟺   L_ω ∩ lim(pre(L_ω ∩ P)) ⊆ P
//
// pre(·) of a Büchi automaton is an NFA (live-state trimming); both lemmas
// read pre(L_ω ∩ P), built in one pass over the reachable pair product
// (prefix_of_intersection in rlv/omega/live.hpp). The liveness check is an
// NFA inclusion (only ⊆ needs checking — ⊇ always holds); the safety check
// is a Büchi emptiness after intersecting with ¬P. Properties can be given
// as Büchi automata or as PLTL formulas (Theorem 4.5 covers both); the
// formula route avoids Büchi complementation.
//
// The two lemma bodies live once, in decide_relative_liveness and
// decide_relative_safety below. check() (rlv/core/check.hpp) dispatches
// every check kind to its kernel, and the entry points below are thin
// wrappers over it.
//
// Also provides classical satisfaction L_ω ⊆ P and the Theorem 4.7
// decomposition (satisfaction ⟺ relative liveness ∧ relative safety).
//
// All entry points take an optional Budget. When the budget trips inside a
// kernel, every entry point — including satisfies() — catches the
// ResourceExhausted and returns a result with `exhausted` set to the
// tripping stage and `holds` left false. A result with `exhausted` engaged
// carries NO verdict and must not be read as a boolean answer.
//
// The safety and satisfaction checks explore their Büchi products on the
// fly (find_accepting_lasso_product), so they only pay for the product
// states the nested DFS actually visits.

#include <optional>

#include "rlv/lang/nfa.hpp"
#include "rlv/ltl/ast.hpp"
#include "rlv/omega/buchi.hpp"
#include "rlv/omega/emptiness.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {

struct RelativeLivenessResult {
  bool holds = false;
  /// When violated: a prefix w ∈ pre(L_ω) with no continuation into P.
  std::optional<Word> violating_prefix;
  /// Set when the budget tripped; `holds` is then meaningless.
  std::optional<Stage> exhausted;
};

struct RelativeSafetyResult {
  bool holds = false;
  /// When violated: a behavior x ∈ L_ω with x ∉ P all of whose prefixes can
  /// still be extended into L_ω ∩ P.
  std::optional<Lasso> counterexample;
  /// Set when the budget tripped; `holds` is then meaningless.
  std::optional<Stage> exhausted;
};

/// Lemma 4.3 body: pre(L_ω) ⊆ pre(L_ω ∩ P) by antichain NFA inclusion.
/// `pre_system` must accept pre(L_ω(system)) (prefix_nfa(system)); taking
/// it as an argument lets a caller that caches it pass the cached copy. The
/// property shares the system's alphabet object. A violating prefix is the
/// inclusion counterexample. Throws ResourceExhausted when the budget trips
/// — the entry points below catch it. (A caller that wants the subset
/// construction's BFS-shortest witness runs check_inclusion(prefix_nfa(
/// system), prefix_of_intersection(system, property), kSubset) itself.)
[[nodiscard]] RelativeLivenessResult decide_relative_liveness(
    const Buchi& system, const Nfa& pre_system, const Buchi& property,
    Budget* budget);

/// Lemma 4.4 body: L_ω ∩ lim(pre(L_ω ∩ P)) ∩ ¬P = ∅, searched on the fly.
/// When every system state is accepting, L_ω is limit-closed, so
/// lim(pre(L_ω ∩ P)) ⊆ lim(pre(L_ω)) = L_ω and the search runs over the two
/// operands {lim(pre(L_ω ∩ P)), ¬P}; otherwise it keeps L_ω as a third
/// operand. Either way the counterexample is a lasso of L_ω ∩ ¬P all of
/// whose prefixes extend into L_ω ∩ P. Throws ResourceExhausted when the
/// budget trips.
[[nodiscard]] RelativeSafetyResult decide_relative_safety(
    const Buchi& system, const Buchi& property,
    const Buchi& negated_property, Budget* budget);

/// Is L_ω(property) a relative liveness property of L_ω(system)? (Def 4.1)
[[nodiscard]] RelativeLivenessResult relative_liveness(
    const Buchi& system, const Buchi& property, Budget* budget = nullptr);

/// Formula flavor: the property is { x | x,λ ⊨ f }.
[[nodiscard]] RelativeLivenessResult relative_liveness(
    const Buchi& system, Formula f, const Labeling& lambda,
    Budget* budget = nullptr);

/// Is L_ω(property) a relative safety property of L_ω(system)? (Def 4.2)
/// The automaton flavor complements `property` with the rank-based
/// construction — exponential; prefer the formula flavor when possible, and
/// pass a Budget when you cannot.
[[nodiscard]] RelativeSafetyResult relative_safety(const Buchi& system,
                                                   const Buchi& property,
                                                   Budget* budget = nullptr);

[[nodiscard]] RelativeSafetyResult relative_safety(const Buchi& system,
                                                   Formula f,
                                                   const Labeling& lambda,
                                                   Budget* budget = nullptr);

struct SatisfactionResult {
  bool holds = false;
  /// When violated: a behavior x ∈ L_ω with x ∉ P.
  std::optional<Lasso> counterexample;
  /// Set when the budget tripped; `holds` is then meaningless.
  std::optional<Stage> exhausted;
};

/// Classical satisfaction L_ω(system) ⊆ P (Definition 3.2), decided as
/// on-the-fly emptiness of L_ω(system) ∩ ¬P; a violation ships the accepted
/// lasso of that product as the counterexample. Like the relative_*
/// functions, a budget trip is reported through `exhausted`, never thrown.
[[nodiscard]] SatisfactionResult satisfies(const Buchi& system,
                                           const Buchi& property,
                                           Budget* budget = nullptr);
[[nodiscard]] SatisfactionResult satisfies(const Buchi& system, Formula f,
                                           const Labeling& lambda,
                                           Budget* budget = nullptr);

}  // namespace rlv
