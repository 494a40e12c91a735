#pragma once

// Büchi emptiness checking and accepting-lasso extraction. Two independent
// implementations — SCC-based (Tarjan) and the nested depth-first search of
// Courcoubetis–Vardi–Wolper–Yannakakis — cross-checked in tests and compared
// in bench_emptiness (experiment E12).

#include <optional>
#include <utility>
#include <vector>

#include "rlv/lang/alphabet.hpp"
#include "rlv/omega/buchi.hpp"
#include "rlv/omega/product.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {

/// An ultimately periodic ω-word u·v^ω as a (prefix, period) pair; the
/// period `v` is never empty for a valid lasso.
struct Lasso {
  Word prefix;
  Word period;

  friend bool operator==(const Lasso&, const Lasso&) = default;
};

enum class EmptinessAlgorithm {
  kScc,
  kNestedDfs,
};

/// True when L_ω(a) = ∅. Linear in the automaton, but the automaton handed
/// in is often a product/complement blow-up, so the search loops still tick
/// the optional Budget's deadline under Stage::kEmptiness.
[[nodiscard]] bool buchi_empty(
    const Buchi& a, EmptinessAlgorithm algorithm = EmptinessAlgorithm::kScc,
    Budget* budget = nullptr);

/// An accepted lasso u·v^ω when the language is non-empty.
[[nodiscard]] std::optional<Lasso> find_accepting_lasso(
    const Buchi& a, Budget* budget = nullptr);

/// On-the-fly emptiness of L_ω(op₁) ∩ … ∩ L_ω(opₙ): nested DFS (CVWY) over
/// an OnTheFlyProduct, so only the product states the search visits are ever
/// constructed — the materialized intersect_buchi chain always builds the
/// full reachable product first. Returns an accepted lasso of the
/// intersection when non-empty. The lasso is a genuine member of the
/// intersection but, being DFS-extracted, is generally NOT the shortest one
/// find_accepting_lasso would return on the materialized product —
/// cross-validate by revalidation, not comparison. Product states are
/// charged to `budget` under Stage::kEmptiness.
[[nodiscard]] std::optional<Lasso> find_accepting_lasso_product(
    const std::vector<const Buchi*>& operands, Budget* budget = nullptr);

/// True when the intersection of the operands' ω-languages is empty.
[[nodiscard]] bool product_empty(const std::vector<const Buchi*>& operands,
                                 Budget* budget = nullptr);

}  // namespace rlv
