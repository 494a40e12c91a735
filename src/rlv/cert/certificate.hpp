#pragma once

// Self-validating verdicts (certificate checking). Every negative verdict of
// check() (rlv/core/check.hpp) carries a concrete witness:
//
//   relative liveness  — a violating prefix w: w ∈ pre(L_ω) yet no
//                        continuation of w stays inside L_ω ∩ P (Lemma 4.3
//                        phrased on words: w separates pre(L_ω) from
//                        pre(L_ω ∩ P));
//   relative safety    — a lasso x = u·v^ω with x ∈ L_ω, x ∉ P, and every
//                        finite prefix of x extendable into L_ω ∩ P
//                        (Lemma 4.4: x ∈ L_ω ∩ lim(pre(L_ω ∩ P)) ∩ ¬P);
//   satisfaction       — a lasso x ∈ L_ω with x ∉ P (Definition 3.2);
//   fair satisfaction  — the same, for a fair run x.
//
// validate() re-checks such a witness against the ORIGINAL automata using
// only simple primitives — state-set simulation (Nfa::run/step), exact
// lasso membership (accepts_lasso), LTL ground-truth evaluation on
// ultimately periodic words (eval_ltl), and a from-scratch explicit product
// + Tarjan SCC live-state computation local to this translation unit. It
// deliberately shares NO code with the optimized inclusion/emptiness
// kernels (lang/inclusion, omega/{live,limit,product,emptiness}) whose
// answers it certifies; a bug there cannot hide here. The formula flavors
// go through translate_ltl to obtain the property automaton — the
// translation itself is independently cross-checked against eval_ltl
// by the lasso-sampling suites, and the ∉P leg of each certificate is
// checked with eval_ltl directly, not through the translation.
//
// Positive verdicts carry no certificate (they assert emptiness/inclusion,
// which a per-instance witness cannot attest); validate() reports them as
// `checked = false`. Use the brute-force oracle (cert/oracle.hpp) to
// cross-check positive verdicts on small instances.

#include <optional>
#include <string>

#include "rlv/core/check.hpp"
#include "rlv/ltl/ast.hpp"
#include "rlv/omega/buchi.hpp"
#include "rlv/omega/emptiness.hpp"
#include "rlv/util/bitset.hpp"

namespace rlv::cert {

/// Outcome of validating one result's certificate.
struct Validation {
  /// False exactly when a certificate was expected and failed (or was
  /// missing). Positive verdicts are vacuously valid.
  bool valid = true;
  /// True when an actual witness was re-checked.
  bool checked = false;
  /// Failure reason when invalid; a short note (e.g. "positive verdict
  /// carries no witness") when valid but unchecked.
  std::string reason;
};

/// The property a witness is checked against: an automaton, or a formula
/// with its labeling. The formula flavor decides the ∉P leg of each
/// certificate with eval_ltl; the legs that need P as an automaton use
/// `automaton` when the caller has f's translation at hand, and translate f
/// themselves otherwise.
struct Property {
  Property(const Buchi& automaton) : automaton(&automaton) {}
  Property(Formula f, const Labeling& lambda,
           const Buchi* translation = nullptr)
      : automaton(translation), formula(f), lambda(&lambda) {}

  const Buchi* automaton = nullptr;
  std::optional<Formula> formula;
  const Labeling* lambda = nullptr;
};

/// Certificate checking for every check kind (rlv/core/check.hpp): the
/// violating prefix of relative liveness goes to check_doomed_prefix, the
/// lasso of relative safety to check_safety_lasso, and the lasso of
/// satisfaction to check_violation_lasso. The fair kinds get that same
/// partial check (membership in L_ω and violation of P); the fairness of the
/// run itself is not re-established. `behaviors` and `property` must be the
/// very automata (or formula + labeling) the check ran on.
[[nodiscard]] Validation validate(CheckKind kind, const CheckResult& result,
                                  const Buchi& behaviors,
                                  const Property& property);

// ---------------------------------------------------------------------------
// Low-level witness checkers, exposed for the fuzz harness and for callers
// that hold a bare witness (e.g. one re-parsed from rlvd JSON output).

/// Checks a relative-liveness violation: w ∈ pre(L_ω(system)) and w has no
/// extension into L_ω(system) ∩ L_ω(property).
[[nodiscard]] Validation check_doomed_prefix(const Word& w, const Buchi& system,
                                             const Buchi& property);

/// Checks a relative-safety violation: u·v^ω ∈ L_ω(system), u·v^ω ∉ P, and
/// every finite prefix of u·v^ω lies in pre(L_ω(system) ∩ P). Membership in
/// ¬P is decided by exact lasso membership on `property` (automaton flavor)
/// or by eval_ltl (formula flavor).
[[nodiscard]] Validation check_safety_lasso(const Lasso& lasso,
                                            const Buchi& system,
                                            const Buchi& property);
[[nodiscard]] Validation check_safety_lasso(const Lasso& lasso,
                                            const Buchi& system,
                                            const Buchi& property, Formula f,
                                            const Labeling& lambda);

/// Checks a satisfaction counterexample: u·v^ω ∈ L_ω(system) and u·v^ω ∉ P.
[[nodiscard]] Validation check_violation_lasso(const Lasso& lasso,
                                               const Buchi& system,
                                               const Buchi& property);
[[nodiscard]] Validation check_violation_lasso(const Lasso& lasso,
                                               const Buchi& system, Formula f,
                                               const Labeling& lambda);

// ---------------------------------------------------------------------------
// Dumb shared primitives (also the substrate of the brute-force oracle).
// These are intentionally naive: materialize, decompose, mark.

/// Explicitly materialized product of Büchi automata with one generalized
/// acceptance set per operand (tuple states interned by BFS from the tuple
/// of initial states).
struct GenProduct {
  explicit GenProduct(AlphabetRef sigma) : structure(std::move(sigma)) {}

  Nfa structure;                // accepting flags unused
  std::vector<DynBitset> sets;  // one per operand, sized to num_states()
};

/// Builds the explicit product. Throws std::invalid_argument on an empty
/// operand list or mismatched alphabets, std::runtime_error when the product
/// exceeds `max_states` (a guard against misuse on large instances — this
/// layer is for small, certifiable ones).
[[nodiscard]] GenProduct explicit_product(
    const std::vector<const Buchi*>& operands,
    std::size_t max_states = 1u << 20);

/// States of `a` from which some Büchi-accepting run exists (i.e. that can
/// reach a nontrivial SCC containing an accepting state).
[[nodiscard]] DynBitset buchi_live(const Buchi& a);

/// States of the product from which some generalized-accepting run exists
/// (reach a nontrivial SCC intersecting every acceptance set).
[[nodiscard]] DynBitset gen_live(const GenProduct& p);

/// True when the product's ω-language is non-empty (some initial state is
/// live).
[[nodiscard]] bool gen_nonempty(const GenProduct& p);

}  // namespace rlv::cert
