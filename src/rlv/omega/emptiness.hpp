#pragma once

// Accepting-lasso extraction: one search, the nested depth-first search of
// Courcoubetis–Vardi–Wolper–Yannakakis over an on-the-fly product of one or
// more Büchi automata. The verdict alone on a materialized automaton is
// omega_empty (rlv/omega/live.hpp), the SCC reference the nested DFS is
// cross-checked against in tests and compared with in bench_emptiness
// (experiment E12).

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

/// On-the-fly emptiness of L_ω(op₁) ∩ … ∩ L_ω(opₙ): nested DFS (CVWY) over
/// an OnTheFlyProduct, so only the product states the search visits are ever
/// constructed — the materialized intersect_buchi chain always builds the
/// full reachable product first. Returns an accepted lasso of the
/// intersection when non-empty. The lasso is a genuine member of the
/// intersection but, being DFS-extracted, is generally NOT the shortest
/// one — cross-validate by revalidation, not comparison. Product states are
/// charged to `budget` under Stage::kEmptiness. The intersection is empty
/// exactly when this returns nullopt; with one operand the product is that
/// operand itself.
[[nodiscard]] std::optional<Lasso> find_accepting_lasso_product(
    const std::vector<const Buchi*>& operands, Budget* budget = nullptr);

}  // namespace rlv
