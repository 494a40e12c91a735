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
#include <utility>
#include <vector>

#include "rlv/omega/buchi.hpp"
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
/// Memory layout: a state is the width-(k+1) tuple (operand states, level)
/// in one TupleInterner (util/intern.hpp); successors are appended to one
/// flat Transition array as states are expanded, each state recording the
/// [begin, end) range of its own. The scratch vectors of an expansion are
/// members, reused from one expansion to the next.
class OnTheFlyProduct {
 public:
  /// `operands` must be non-empty, outlive the product, and share one
  /// alphabet object (std::invalid_argument otherwise).
  OnTheFlyProduct(std::vector<const Buchi*> operands, Budget* budget);

  /// Interned ids of the initial product states.
  [[nodiscard]] const std::vector<State>& initial() const { return initial_; }

  [[nodiscard]] bool is_accepting(State s) const {
    return states_.at(s)[operands_.size()] == operands_.size();
  }

  /// Successors of `s`, expanded on first call and cached. The span is
  /// valid until the next out() call, which may expand another state and
  /// move the successor array: copy a Transition out before calling again.
  [[nodiscard]] std::span<const Transition> out(State s);

  /// Number of product states interned so far (monotone; exploration cost).
  [[nodiscard]] std::size_t num_interned() const { return states_.size(); }

 private:
  /// Interns the tuple staged in targets_; returns its id.
  State intern();
  void expand(State s);

  std::vector<const Buchi*> operands_;
  Budget* budget_;

  TupleInterner<State> states_;  // (operand states..., level)
  std::vector<State> initial_;
  // Successors of state s: succ_[range_[s].first .. range_[s].second);
  // kUnexpanded until expanded.
  static constexpr std::uint32_t kUnexpanded = 0xffffffffU;
  std::vector<Transition> succ_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> range_;

  // Expansion scratch, reused.
  std::vector<State> tuple_;
  std::vector<State> targets_;
  std::vector<std::span<const Transition>> blocks_;
  std::vector<std::size_t> idx_;
};

}  // namespace rlv
