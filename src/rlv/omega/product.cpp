#include "rlv/omega/product.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rlv/lang/ops.hpp"
#include "rlv/util/hash.hpp"

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
    : operands_(std::move(operands)), budget_(budget) {
  if (operands_.empty()) {
    throw std::invalid_argument("OnTheFlyProduct: no operands");
  }
  for (const Buchi* op : operands_) {
    require_same_alphabet(operands_.front()->alphabet(), op->alphabet(),
                          "OnTheFlyProduct");
    op->structure().finalize();  // CSR index before per-symbol block joins
  }

  const std::size_t k = operands_.size();
  // Cartesian product of the operands' initial states; the initial level
  // accounts for acceptance sets the initial tuple itself satisfies,
  // mirroring degeneralize().
  std::vector<State> tuple(k);
  std::vector<std::size_t> idx(k, 0);
  for (;;) {
    bool valid = true;
    for (std::size_t i = 0; i < k; ++i) {
      const auto& inits = operands_[i]->initial();
      if (idx[i] >= inits.size()) {
        valid = false;
        break;
      }
      tuple[i] = inits[idx[i]];
    }
    if (!valid) break;  // some operand has no initial state: empty product
    std::size_t level = 0;
    while (level < k && operands_[level]->is_accepting(tuple[level])) ++level;
    const State id = intern(tuple.data(), level);
    if (std::find(initial_.begin(), initial_.end(), id) == initial_.end()) {
      initial_.push_back(id);
    }
    // Odometer over the initial-state lists.
    std::size_t i = 0;
    while (i < k && ++idx[i] == operands_[i]->initial().size()) {
      idx[i] = 0;
      ++i;
    }
    if (i == k) break;
  }
}

State OnTheFlyProduct::intern(const State* parts, std::size_t level) {
  const std::size_t k = operands_.size();
  std::size_t h = level;
  for (std::size_t i = 0; i < k; ++i) h = hash_combine(h, parts[i]);

  auto eq = [&](State id) {
    if (levels_[id] != level) return false;
    const State* stored = tuple_data_.data() + static_cast<std::size_t>(id) * k;
    for (std::size_t i = 0; i < k; ++i) {
      if (stored[i] != parts[i]) return false;
    }
    return true;
  };
  const State found = table_.find(h, eq);
  if (found != IdTable::kNoId) return found;

  budget_charge(budget_);
  const State id = static_cast<State>(levels_.size());
  tuple_data_.insert(tuple_data_.end(), parts, parts + k);
  levels_.push_back(static_cast<std::uint32_t>(level));
  out_ptr_.push_back(nullptr);
  out_len_.push_back(0);
  expanded_.push_back(false);
  table_.insert(h, id, [&](State x) {
    const State* stored = tuple_data_.data() + static_cast<std::size_t>(x) * k;
    std::size_t hx = levels_[x];
    for (std::size_t i = 0; i < k; ++i) hx = hash_combine(hx, stored[i]);
    return hx;
  });
  budget_note_memory(budget_,
                     arena_.bytes_reserved() + table_.bytes() +
                         tuple_data_.capacity() * sizeof(State));
  return id;
}

void OnTheFlyProduct::expand(State s) {
  const std::size_t k = operands_.size();
  // Copy: intern() appends to tuple_data_ while we read the tuple.
  std::vector<State> tuple(
      tuple_data_.begin() + static_cast<std::size_t>(s) * k,
      tuple_data_.begin() + static_cast<std::size_t>(s) * k + k);
  const std::size_t base = (levels_[s] == k) ? 0 : levels_[s];

  // Operand edges arrive grouped by symbol (CSR), so the join is an odometer
  // over the per-operand (state, symbol) successor blocks — no per-edge
  // symbol filtering and no intermediate tuple vectors.
  std::vector<Transition> edges;
  std::vector<std::span<const Transition>> blocks(k);
  std::vector<std::size_t> idx(k);
  std::vector<State> targets(k);
  const std::span<const Transition> e0 = operands_[0]->out(tuple[0]);
  for (std::size_t i0 = 0; i0 < e0.size();) {
    const Symbol sym = e0[i0].symbol;
    std::size_t end0 = i0;
    while (end0 < e0.size() && e0[end0].symbol == sym) ++end0;
    blocks[0] = e0.subspan(i0, end0 - i0);
    i0 = end0;

    bool joinable = true;
    for (std::size_t i = 1; i < k; ++i) {
      blocks[i] = operands_[i]->block(tuple[i], sym);
      if (blocks[i].empty()) {
        joinable = false;
        break;
      }
    }
    if (!joinable) continue;

    std::fill(idx.begin(), idx.end(), 0);
    for (;;) {
      for (std::size_t i = 0; i < k; ++i) targets[i] = blocks[i][idx[i]].target;
      std::size_t next_level = base;
      while (next_level < k &&
             operands_[next_level]->is_accepting(targets[next_level])) {
        ++next_level;
      }
      edges.push_back(Transition{sym, intern(targets.data(), next_level)});
      std::size_t i = 0;
      while (i < k && ++idx[i] == blocks[i].size()) {
        idx[i] = 0;
        ++i;
      }
      if (i == k) break;
    }
  }

  out_len_[s] = static_cast<std::uint32_t>(edges.size());
  out_ptr_[s] =
      edges.empty() ? nullptr : arena_.copy_array(edges.data(), edges.size());
  expanded_[s] = true;
}

std::span<const Transition> OnTheFlyProduct::out(State s) {
  if (!expanded_[s]) expand(s);
  return {out_ptr_[s], out_len_[s]};
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
