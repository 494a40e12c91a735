#pragma once

// One decision pipeline for the five checks of a system L_ω against a
// property P: relative liveness (Lemma 4.3), relative safety (Lemma 4.4),
// classical satisfaction L_ω ⊆ P, and fair satisfaction under strong and
// weak transition fairness. check() is the one place that picks the kernel
// a check kind runs; the query engine, rlv_check and rlv_fuzz all go
// through it, and cert::validate (rlv/cert/certificate.hpp) is the one
// place that picks the certificate checker for its witness.
//
// The operands are built on demand: a caller hands over L_ω and builders
// for pre(L_ω), P and ¬P, and a check builds only what its kernel reads.
// The query engine's builders fetch its caches; plain callers take
// of_formula or of_automaton.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "rlv/lang/nfa.hpp"
#include "rlv/ltl/ast.hpp"
#include "rlv/omega/buchi.hpp"
#include "rlv/omega/emptiness.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {

/// Which decision procedure to run (the modes of `rlv_check`).
enum class CheckKind : std::uint8_t {
  kRelativeLiveness,  // Lemma 4.3: pre(L_ω) ⊆ pre(L_ω ∩ P)
  kRelativeSafety,    // Lemma 4.4: L_ω ∩ lim(pre(L_ω ∩ P)) ⊆ P
  kSatisfaction,      // classical L_ω ⊆ P
  kFairStrong,        // all strongly transition-fair runs satisfy P
  kFairWeak,          // all weakly (justice) fair runs satisfy P
};

/// Parses the rlv_check-style mode names: rl, rs, sat, fair, fairweak.
[[nodiscard]] std::optional<CheckKind> parse_check_kind(std::string_view name);

/// Inverse of parse_check_kind.
[[nodiscard]] std::string_view check_kind_name(CheckKind kind);

/// The behaviors automaton L_ω plus pre(L_ω), P and ¬P, each built by its
/// builder on first use and then kept, so a certificate check after the
/// kernel reads the same P. Every automaton must share L_ω's alphabet
/// object.
class CheckOperands {
 public:
  template <class T>
  using Builder = std::function<std::shared_ptr<const T>()>;

  CheckOperands(const Buchi& behaviors, Builder<Nfa> prefixes,
                Builder<Buchi> property, Builder<Buchi> negated);

  /// P = { x | x,λ ⊨ f }: P and ¬P are the translations of f and of its
  /// pushed-in negation. The arguments must outlive the operands.
  [[nodiscard]] static CheckOperands of_formula(const Buchi& behaviors,
                                                Formula f,
                                                const Labeling& lambda,
                                                Budget* budget = nullptr);

  /// P given as an automaton; ¬P is its rank-based complement, which is
  /// exponential — pass a Budget. The arguments must outlive the operands.
  [[nodiscard]] static CheckOperands of_automaton(const Buchi& behaviors,
                                                  const Buchi& property,
                                                  Budget* budget = nullptr);

  [[nodiscard]] const Buchi& behaviors() const { return behaviors_; }
  [[nodiscard]] const Nfa& prefixes() {
    return get(prefixes_, build_prefixes_);
  }
  [[nodiscard]] const Buchi& property() {
    return get(property_, build_property_);
  }
  [[nodiscard]] const Buchi& negated() {
    return get(negated_, build_negated_);
  }

  /// P if a check has built it, else null: a certificate check can reuse it
  /// without building it for a kind that never read it.
  [[nodiscard]] const Buchi* built_property() const { return property_.get(); }

 private:
  template <class T>
  static const T& get(std::shared_ptr<const T>& slot, const Builder<T>& build) {
    if (!slot) slot = build();
    return *slot;
  }

  const Buchi& behaviors_;
  Builder<Nfa> build_prefixes_;
  Builder<Buchi> build_property_;
  Builder<Buchi> build_negated_;
  std::shared_ptr<const Nfa> prefixes_;
  std::shared_ptr<const Buchi> property_;
  std::shared_ptr<const Buchi> negated_;
};

/// A check's outcome. A negative relative-liveness verdict carries a
/// violating prefix (a word of pre(L_ω) with no continuation into P); every
/// other negative verdict carries a counterexample lasso of L_ω ∩ ¬P (for
/// relative safety, one all of whose prefixes extend into L_ω ∩ P; for the
/// fair kinds, a fair run).
struct CheckResult {
  bool holds = false;
  std::optional<Word> violating_prefix;
  std::optional<Lasso> counterexample;
};

/// Runs the kernel of `kind` on the operands: decide_relative_liveness
/// (antichain inclusion), decide_relative_safety, on-the-fly emptiness of
/// L_ω ∩ ¬P, or check_fair_satisfaction_negated. Throws ResourceExhausted
/// when the budget trips.
[[nodiscard]] CheckResult check(CheckKind kind, CheckOperands& operands,
                                Budget* budget = nullptr);

}  // namespace rlv
