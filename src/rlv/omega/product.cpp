#include "rlv/omega/product.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rlv/lang/ops.hpp"

namespace rlv {

GenBuchi product_gen(const Buchi& a, const Buchi& b, Budget* budget) {
  StageScope scope(budget, Stage::kProduct);
  const PairProduct product =
      pair_product(a.structure(), b.structure(), budget);
  GenBuchi result(a.alphabet());
  result.structure = product.to_nfa(a.alphabet(), false);

  DynBitset fa(product.size());
  DynBitset fb(product.size());
  for (State s = 0; s < product.size(); ++s) {
    if (a.is_accepting(product.left(s))) fa.set(s);
    if (b.is_accepting(product.right(s))) fb.set(s);
  }
  result.sets.push_back(std::move(fa));
  result.sets.push_back(std::move(fb));
  return result;
}

Buchi intersect_buchi(const Buchi& a, const Buchi& b, Budget* budget) {
  StageScope scope(budget, Stage::kProduct);
  return degeneralize(product_gen(a, b, budget), budget);
}

OnTheFlyProduct::OnTheFlyProduct(std::vector<const Buchi*> operands,
                                 Budget* budget)
    : operands_(std::move(operands)),
      budget_(budget),
      states_(operands_.size() + 1) {
  if (operands_.empty()) {
    throw std::invalid_argument("OnTheFlyProduct: no operands");
  }
  for (const Buchi* op : operands_) {
    require_same_alphabet(operands_.front()->alphabet(), op->alphabet(),
                          "OnTheFlyProduct");
    op->structure().finalize();  // CSR index before per-symbol block joins
  }

  const std::size_t k = operands_.size();
  tuple_.resize(k + 1);
  targets_.resize(k + 1);
  blocks_.resize(k);
  idx_.resize(k);
  // Cartesian product of the operands' initial states; the initial level
  // accounts for acceptance sets the initial tuple itself satisfies,
  // mirroring degeneralize().
  for (;;) {
    bool valid = true;
    for (std::size_t i = 0; i < k; ++i) {
      const auto& inits = operands_[i]->initial();
      if (idx_[i] >= inits.size()) {
        valid = false;
        break;
      }
      targets_[i] = inits[idx_[i]];
    }
    if (!valid) break;  // some operand has no initial state: empty product
    State level = 0;
    while (level < k && operands_[level]->is_accepting(targets_[level])) {
      ++level;
    }
    targets_[k] = level;
    const State id = intern();
    if (std::find(initial_.begin(), initial_.end(), id) == initial_.end()) {
      initial_.push_back(id);
    }
    // Odometer over the initial-state lists.
    std::size_t i = 0;
    while (i < k && ++idx_[i] == operands_[i]->initial().size()) {
      idx_[i] = 0;
      ++i;
    }
    if (i == k) break;
  }
}

State OnTheFlyProduct::intern() {
  const auto [id, fresh] = states_.intern(targets_.data());
  if (fresh) {
    range_.emplace_back(kUnexpanded, kUnexpanded);
    budget_charge(budget_);
    budget_note_memory(budget_,
                       states_.bytes() + succ_.capacity() * sizeof(Transition) +
                           range_.capacity() * sizeof(range_.front()));
  }
  return id;
}

void OnTheFlyProduct::expand(State s) {
  const std::size_t k = operands_.size();
  // Copy: intern() appends to the tuple storage while we read the tuple.
  std::copy(states_.at(s), states_.at(s) + k + 1, tuple_.begin());
  const std::size_t base = (tuple_[k] == k) ? 0 : tuple_[k];
  const auto begin = static_cast<std::uint32_t>(succ_.size());

  // Operand edges arrive grouped by symbol (CSR), so the join is an odometer
  // over the per-operand (state, symbol) successor blocks — no per-edge
  // symbol filtering and no intermediate tuple vectors.
  const std::span<const Transition> e0 = operands_[0]->out(tuple_[0]);
  for (std::size_t i0 = 0; i0 < e0.size();) {
    const Symbol sym = e0[i0].symbol;
    std::size_t end0 = i0;
    while (end0 < e0.size() && e0[end0].symbol == sym) ++end0;
    blocks_[0] = e0.subspan(i0, end0 - i0);
    i0 = end0;

    bool joinable = true;
    for (std::size_t i = 1; i < k; ++i) {
      blocks_[i] = operands_[i]->block(tuple_[i], sym);
      if (blocks_[i].empty()) {
        joinable = false;
        break;
      }
    }
    if (!joinable) continue;

    std::fill(idx_.begin(), idx_.end(), 0);
    for (;;) {
      for (std::size_t i = 0; i < k; ++i) {
        targets_[i] = blocks_[i][idx_[i]].target;
      }
      State next_level = static_cast<State>(base);
      while (next_level < k &&
             operands_[next_level]->is_accepting(targets_[next_level])) {
        ++next_level;
      }
      targets_[k] = next_level;
      const State target = intern();
      succ_.push_back(Transition{sym, target});
      std::size_t i = 0;
      while (i < k && ++idx_[i] == blocks_[i].size()) {
        idx_[i] = 0;
        ++i;
      }
      if (i == k) break;
    }
  }
  range_[s] = {begin, static_cast<std::uint32_t>(succ_.size())};
}

std::span<const Transition> OnTheFlyProduct::out(State s) {
  if (range_[s].first == kUnexpanded) expand(s);
  return {succ_.data() + range_[s].first,
          succ_.data() + range_[s].second};
}

Buchi union_buchi(const Buchi& a, const Buchi& b) {
  require_same_alphabet(a.alphabet(), b.alphabet(), "union_buchi");
  Buchi result(a.alphabet());
  for (State s = 0; s < a.num_states(); ++s) {
    result.add_state(a.is_accepting(s));
  }
  const State offset = static_cast<State>(a.num_states());
  for (State s = 0; s < b.num_states(); ++s) {
    result.add_state(b.is_accepting(s));
  }
  for (State s = 0; s < a.num_states(); ++s) {
    for (const auto& t : a.out(s)) result.add_transition(s, t.symbol, t.target);
  }
  for (State s = 0; s < b.num_states(); ++s) {
    for (const auto& t : b.out(s)) {
      result.add_transition(offset + s, t.symbol, offset + t.target);
    }
  }
  for (const State s : a.initial()) result.set_initial(s);
  for (const State s : b.initial()) result.set_initial(offset + s);
  return result;
}

}  // namespace rlv
