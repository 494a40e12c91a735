#pragma once

// Büchi intersection. L_ω ∩ P is computed as a generalized-Büchi product
// (one acceptance set per operand) over the reachable pair product
// (pair_product, rlv/lang/ops.hpp), followed by degeneralization. Each
// product state (and each degeneralization level copy) is charged to the
// optional Budget under Stage::kProduct.
//
// OnTheFlyProduct is the lazy counterpart: an n-ary degeneralized product
// whose states are interned and whose successors are expanded only when an
// exploration asks for them. The emptiness search over it (see
// emptiness.hpp: find_accepting_lasso_product) therefore
// pays only for the states it actually visits — on satisfied properties the
// nested DFS often finds (or refutes) an accepting cycle after touching a
// fraction of the full product, which the materializing path always builds
// in full.
//
// Both operands must share one alphabet object; std::invalid_argument
// otherwise (the guard survives NDEBUG builds).

#include <span>
#include <vector>

#include "rlv/omega/buchi.hpp"
#include "rlv/util/arena.hpp"
#include "rlv/util/budget.hpp"
#include "rlv/util/intern.hpp"

namespace rlv {

/// Büchi automaton for L_ω(a) ∩ L_ω(b).
[[nodiscard]] Buchi intersect_buchi(const Buchi& a, const Buchi& b,
                                    Budget* budget = nullptr);

/// Generalized-Büchi product, exposed for tests and for callers that want to
/// keep the two acceptance sets separate.
[[nodiscard]] GenBuchi product_gen(const Buchi& a, const Buchi& b,
                                   Budget* budget = nullptr);

/// Disjoint union: L_ω(a) ∪ L_ω(b).
[[nodiscard]] Buchi union_buchi(const Buchi& a, const Buchi& b);

/// Lazy n-ary Büchi intersection with counter-based degeneralization built
/// in: a product state is a tuple of operand states plus a level counter
/// 0..k (k = number of operands); level k is accepting and resets on the
/// next step, matching degeneralize()'s semantics, so the language equals
/// the materialized intersect_buchi chain. States are interned to dense ids
/// on first touch and charged to the Budget under the *caller's current
/// stage* (the emptiness search runs it under Stage::kEmptiness — the lazy
/// path has no separate product stage by construction).
///
/// Memory layout: tuples live k-States-apiece in one flat array keyed by a
/// flat open-addressing id table (util/intern.hpp); cached successor lists
/// are immutable blocks in a bump arena, so out() hands back a span whose
/// storage never moves across later expansions, and the whole product frees
/// wholesale on destruction.
class OnTheFlyProduct {
 public:
  /// `operands` must be non-empty, outlive the product, and share one
  /// alphabet object (std::invalid_argument otherwise).
  OnTheFlyProduct(std::vector<const Buchi*> operands, Budget* budget);

  /// Interned ids of the initial product states.
  [[nodiscard]] const std::vector<State>& initial() const { return initial_; }

  [[nodiscard]] bool is_accepting(State s) const {
    return levels_[s] == operands_.size();
  }

  /// Successors of `s`, expanded on first call and cached. The span stays
  /// valid across later expansions (arena blocks never move).
  [[nodiscard]] std::span<const Transition> out(State s);

  /// Number of product states interned so far (monotone; exploration cost).
  [[nodiscard]] std::size_t num_interned() const { return levels_.size(); }

 private:
  State intern(const State* parts, std::size_t level);
  void expand(State s);

  std::vector<const Buchi*> operands_;
  Budget* budget_;

  // id ↔ (tuple, level): tuple i occupies tuple_data_[i*k .. i*k+k);
  // out_ptr_/out_len_/expanded_ grow in lockstep with levels_.
  std::vector<State> tuple_data_;
  std::vector<std::uint32_t> levels_;
  std::vector<const Transition*> out_ptr_;
  std::vector<std::uint32_t> out_len_;
  std::vector<bool> expanded_;
  std::vector<State> initial_;
  IdTable table_;
  Arena arena_;  // cached successor blocks
};

}  // namespace rlv
