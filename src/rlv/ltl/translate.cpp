#include "rlv/ltl/translate.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>
#include <utility>

#include "rlv/ltl/pnf.hpp"
#include "rlv/util/intern.hpp"

namespace rlv {

namespace {

constexpr std::uint32_t kNone = 0xffffffffU;

/// A subformula of the PNF formula, addressed by its dense id.
struct Sub {
  LtlOp op;
  std::uint32_t left = kNone;
  std::uint32_t right = kNone;
  std::uint32_t complement = kNone;  // literals: the opposite literal's id
  std::uint32_t literal = kNone;     // literals: index into literals
};

bool test(const std::uint64_t* set, std::uint32_t id) {
  return (set[id >> 6] >> (id & 63)) & 1U;
}
void set_bit(std::uint64_t* set, std::uint32_t id) {
  set[id >> 6] |= std::uint64_t{1} << (id & 63);
}
void reset_bit(std::uint64_t* set, std::uint32_t id) {
  set[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
}

/// The GPVW expansion over dense ids. Formula sets are `words_` words; a
/// pending node is a frame todo|old|next on one flat stack, and a completed
/// node is its old|next half, interned once. cover() runs once per distinct
/// next-set: nodes with equal obligations share one successor list.
class TableauBuilder {
 public:
  TableauBuilder(Formula phi, Budget* budget) : budget_(budget) {
    const std::uint32_t root = number(phi);
    words_ = (subs_.size() + 63) / 64;
    lists_ = TupleInterner<std::uint64_t>(words_);
    nodes_ = TupleInterner<std::uint64_t>(2 * words_);
    link_literals();

    std::vector<std::uint64_t> seed(words_, 0);
    set_bit(seed.data(), root);
    lists_.intern(seed.data());
    out_.list_offsets.push_back(0);
    // Lists are expanded in id order; expanding one may intern more.
    for (std::uint32_t list = 0; list < lists_.size(); ++list) cover(list);
    finish();
  }

  Tableau take() { return std::move(out_); }

 private:
  /// Structural post-order: operands before operators, left before right,
  /// each distinct (hash-consed) subformula once.
  std::uint32_t number(Formula f) {
    if (const auto it = ids_.find(f.raw()); it != ids_.end()) return it->second;
    Sub sub{f.op()};
    switch (f.op()) {
      case LtlOp::kTrue:
      case LtlOp::kFalse:
      case LtlOp::kAtom:
        break;
      case LtlOp::kNot:
      case LtlOp::kNext:
        sub.left = number(f.left());
        break;
      case LtlOp::kAnd:
      case LtlOp::kOr:
      case LtlOp::kUntil:
      case LtlOp::kRelease:
        sub.left = number(f.left());
        sub.right = number(f.right());
        break;
    }
    const auto id = static_cast<std::uint32_t>(subs_.size());
    subs_.push_back(sub);
    formulas_.push_back(f);
    ids_.emplace(f.raw(), id);
    return id;
  }

  /// Numbers the literals in id order and pairs p with ¬p. In PNF every
  /// negation sits on an atom.
  void link_literals() {
    for (std::uint32_t id = 0; id < subs_.size(); ++id) {
      Sub& sub = subs_[id];
      if (sub.op == LtlOp::kNot) {
        sub.complement = sub.left;
        subs_[sub.left].complement = id;
        sub.literal = static_cast<std::uint32_t>(out_.literals.size());
        out_.literals.push_back({formulas_[sub.left].atom_name(), false});
      } else if (sub.op == LtlOp::kAtom) {
        sub.literal = static_cast<std::uint32_t>(out_.literals.size());
        out_.literals.push_back({formulas_[id].atom_name(), true});
      }
    }
  }

  std::uint64_t* frame(std::size_t k) {
    return stack_.data() + k * 3 * words_;
  }
  [[nodiscard]] std::size_t frames() const {
    return stack_.size() / (3 * words_);
  }
  /// Pushes a copy of the top frame.
  void branch() {
    const std::size_t size = stack_.size();
    stack_.resize(size + 3 * words_);
    std::copy(stack_.begin() + static_cast<std::ptrdiff_t>(size - 3 * words_),
              stack_.begin() + static_cast<std::ptrdiff_t>(size),
              stack_.begin() + static_cast<std::ptrdiff_t>(size));
  }
  void pop() { stack_.resize(stack_.size() - 3 * words_); }

  [[nodiscard]] std::uint32_t highest(const std::uint64_t* set) const {
    for (std::size_t i = words_; i-- > 0;) {
      if (set[i] != 0) {
        return static_cast<std::uint32_t>(i * 64 + 63 -
                                          std::countl_zero(set[i]));
      }
    }
    return kNone;
  }

  /// Expands list `list`'s next-set into completed nodes and records them
  /// as the list's successors.
  void cover(std::uint32_t list) {
    stack_.assign(3 * words_, 0);
    const std::uint64_t* seed = lists_.at(list);
    std::copy(seed, seed + words_, stack_.begin());

    while (!stack_.empty()) {
      budget_tick(budget_);
      const std::size_t top = frames() - 1;
      std::uint64_t* todo = frame(top);
      std::uint64_t* old = todo + words_;
      std::uint64_t* next = old + words_;
      const std::uint32_t f = highest(todo);
      if (f == kNone) {
        emit(list, old);
        pop();
        continue;
      }
      reset_bit(todo, f);
      if (test(old, f)) continue;

      const Sub& sub = subs_[f];
      switch (sub.op) {
        case LtlOp::kTrue:
          break;
        case LtlOp::kFalse:
          pop();  // contradiction: drop the node
          break;
        case LtlOp::kAtom:
        case LtlOp::kNot:
          if (sub.complement != kNone && test(old, sub.complement)) {
            pop();  // p ∧ ¬p: drop
          } else {
            set_bit(old, f);
          }
          break;
        case LtlOp::kAnd:
          set_bit(old, f);
          set_bit(todo, sub.left);
          set_bit(todo, sub.right);
          break;
        case LtlOp::kNext:
          set_bit(old, f);
          set_bit(next, sub.left);
          break;
        case LtlOp::kOr:
        case LtlOp::kUntil:
        case LtlOp::kRelease: {
          // The copy on top is expanded first: giving it the branch that
          // discharges the obligation now lists fulfilling successors
          // first, which is the order a nested DFS over the product tries.
          set_bit(old, f);
          branch();
          std::uint64_t* now = frame(top + 1);
          std::uint64_t* later = frame(top);
          if (sub.op == LtlOp::kOr) {
            set_bit(now, sub.left);
            set_bit(later, sub.right);
          } else if (sub.op == LtlOp::kUntil) {
            // fUg = g ∨ (f ∧ X(fUg)).
            set_bit(now, sub.right);
            set_bit(later, sub.left);
            set_bit(later + 2 * words_, f);
          } else {
            // fRg = (g ∧ f) ∨ (g ∧ X(fRg)).
            set_bit(now, sub.left);
            set_bit(now, sub.right);
            set_bit(later, sub.right);
            set_bit(later + 2 * words_, f);
          }
          break;
        }
      }
    }
    out_.list_offsets.push_back(
        static_cast<std::uint32_t>(out_.list_nodes.size()));
  }

  /// Interns the completed node old|next (contiguous in its frame) and adds
  /// it to `list` once.
  void emit(std::uint32_t list, const std::uint64_t* old_next) {
    const auto [node, fresh] = nodes_.intern(old_next);
    if (fresh) {
      budget_charge(budget_);
      out_.next_list.push_back(lists_.intern(old_next + words_).first);
      listed_in_.push_back(kNone);
    }
    if (listed_in_[node] == list) return;
    listed_in_[node] = list;
    out_.list_nodes.push_back(node);
  }

  void finish() {
    const std::size_t n = out_.num_nodes();
    out_.literal_offsets.assign(1, 0);
    for (std::uint32_t node = 0; node < n; ++node) {
      const std::uint64_t* old = nodes_.at(node);
      for (std::uint32_t id = 0; id < subs_.size(); ++id) {
        if (subs_[id].literal != kNone && test(old, id)) {
          out_.literal_ids.push_back(subs_[id].literal);
        }
      }
      out_.literal_offsets.push_back(
          static_cast<std::uint32_t>(out_.literal_ids.size()));
    }
    for (std::uint32_t id = 0; id < subs_.size(); ++id) {
      if (subs_[id].op != LtlOp::kUntil) continue;
      DynBitset set(n);
      for (std::uint32_t node = 0; node < n; ++node) {
        const std::uint64_t* old = nodes_.at(node);
        if (!test(old, id) || test(old, subs_[id].right)) set.set(node);
      }
      out_.accepting.push_back(std::move(set));
    }
  }

  Budget* budget_;
  std::vector<Sub> subs_;
  std::vector<Formula> formulas_;
  std::unordered_map<const void*, std::uint32_t> ids_;
  std::size_t words_ = 1;
  TupleInterner<std::uint64_t> lists_{1};  // next-sets; id = successor list
  TupleInterner<std::uint64_t> nodes_{2};  // old|next pairs; id = node
  std::vector<std::uint32_t> listed_in_;  // last list a node was added to
  std::vector<std::uint64_t> stack_;
  Tableau out_;
};

}  // namespace

Tableau build_tableau(Formula f, Budget* budget) {
  return TableauBuilder(to_pnf(f), budget).take();
}

GenBuchi instantiate(const Tableau& tableau, const Labeling& lambda,
                     Budget* budget) {
  const AlphabetRef& sigma = lambda.alphabet();
  const std::size_t m = sigma->size();
  const std::size_t words = (m + 63) / 64;

  // One Σ-mask per literal, then one letter mask per node: the letters
  // consistent with every literal the node asserts.
  std::vector<std::uint64_t> literal_masks(tableau.literals.size() * words, 0);
  for (std::size_t l = 0; l < tableau.literals.size(); ++l) {
    const Tableau::Literal& literal = tableau.literals[l];
    for (Symbol a = 0; a < m; ++a) {
      if (lambda.holds(a, literal.atom) == literal.positive) {
        set_bit(literal_masks.data() + l * words, a);
      }
    }
  }
  const std::size_t n = tableau.num_nodes();
  std::vector<std::uint64_t> node_masks(n * words, ~std::uint64_t{0});
  for (std::size_t node = 0; node < n; ++node) {
    std::uint64_t* mask = node_masks.data() + node * words;
    if (m % 64 != 0) mask[words - 1] = (std::uint64_t{1} << (m % 64)) - 1;
    for (std::uint32_t i = tableau.literal_offsets[node];
         i < tableau.literal_offsets[node + 1]; ++i) {
      const std::uint64_t* lit =
          literal_masks.data() + tableau.literal_ids[i] * words;
      for (std::size_t w = 0; w < words; ++w) mask[w] &= lit[w];
    }
  }

  GenBuchi result(sigma);
  std::vector<State> state_of(n, kNoState);
  std::vector<std::uint32_t> node_of;  // state s > 0 is node node_of[s - 1]
  node_of.reserve(n);
  budget_charge(budget);
  const State init = result.structure.add_state();
  result.structure.set_initial(init);

  const auto expand = [&](State from, std::uint32_t list) {
    for (std::uint32_t i = tableau.list_offsets[list];
         i < tableau.list_offsets[list + 1]; ++i) {
      const std::uint32_t node = tableau.list_nodes[i];
      const std::uint64_t* mask = node_masks.data() + node * words;
      if (std::all_of(mask, mask + words,
                      [](std::uint64_t w) { return w == 0; })) {
        continue;  // no letter enters the node
      }
      if (state_of[node] == kNoState) {
        budget_charge(budget);
        state_of[node] = result.structure.add_state();
        node_of.push_back(node);
      }
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
          const auto a = static_cast<Symbol>(w * 64 + std::countr_zero(bits));
          result.structure.add_transition(from, a, state_of[node]);
        }
      }
    }
  };
  expand(init, 0);
  for (std::size_t i = 0; i < node_of.size(); ++i) {
    budget_tick(budget);
    expand(static_cast<State>(i + 1), tableau.next_list[node_of[i]]);
  }

  // The initial state occurs at most once in a run, so its membership is
  // irrelevant; include it for neatness.
  for (const DynBitset& nodes : tableau.accepting) {
    DynBitset set(result.structure.num_states());
    set.set(init);
    for (std::size_t i = 0; i < node_of.size(); ++i) {
      if (nodes.test(node_of[i])) set.set(i + 1);
    }
    result.sets.push_back(std::move(set));
  }
  return result;
}

GenBuchi translate_ltl_gen(Formula f, const Labeling& lambda, Budget* budget) {
  StageScope scope(budget, Stage::kTranslate);
  return instantiate(build_tableau(f, budget), lambda, budget);
}

Buchi translate_ltl(Formula f, const Labeling& lambda, Budget* budget) {
  StageScope scope(budget, Stage::kTranslate);
  return degeneralize(instantiate(build_tableau(f, budget), lambda, budget),
                      budget);
}

Buchi translate_ltl_negated(Formula f, const Labeling& lambda,
                            Budget* budget) {
  return translate_ltl(f_not(f), lambda, budget);
}

}  // namespace rlv
