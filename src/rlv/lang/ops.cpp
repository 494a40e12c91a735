#include "rlv/lang/ops.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <numeric>
#include <queue>
#include <span>
#include <stdexcept>

#include "rlv/util/intern.hpp"

namespace rlv {

Dfa determinize(const Nfa& nfa, Budget* budget) {
  Dfa dfa(nfa.alphabet());
  const std::size_t n = nfa.num_states();
  const std::size_t sigma = nfa.alphabet()->size();
  nfa.finalize();

  DynBitset init(n);
  for (const State s : nfa.initial()) init.set(s);
  if (init.none()) {
    // Empty language: single non-accepting state with no transitions keeps
    // downstream algorithms total.
    const State s = dfa.add_state(false);
    dfa.set_initial(s);
    return dfa;
  }

  // Subset states live interned in one contiguous word array; DFA state ids
  // are the dense intern ids (first-seen order, so the numbering matches the
  // classical worklist construction). The two scratch buffers are the only
  // per-step allocations.
  TupleInterner<std::uint64_t> interner(init.num_words());
  const DynBitset acc_set = nfa.accepting_set();
  const std::size_t words_per = interner.width();
  std::vector<std::uint64_t> cur(words_per, 0);
  std::vector<std::uint64_t> nxt(words_per, 0);

  auto accepts_words = [&](const std::uint64_t* w) {
    for (std::size_t i = 0; i < words_per; ++i) {
      if ((w[i] & acc_set.words_data()[i]) != 0) return true;
    }
    return false;
  };

  auto intern = [&](const std::uint64_t* w) -> State {
    const auto [id, fresh] = interner.intern(w);
    if (fresh) {
      budget_charge(budget);
      [[maybe_unused]] const State d = dfa.add_state(accepts_words(w));
      assert(d == id);
    }
    return id;
  };

  std::copy(init.words_data(), init.words_data() + words_per, nxt.begin());
  const State start = intern(nxt.data());
  dfa.set_initial(start);

  for (State d = 0; d < interner.size(); ++d) {
    // The interner grows while we iterate (and its word pointers move), so
    // the current subset is staged into `cur` first.
    std::copy(interner.at(d), interner.at(d) + words_per, cur.begin());
    for (Symbol a = 0; a < sigma; ++a) {
      nfa.step_words(cur.data(), a, nxt.data());
      bool empty = true;
      for (std::size_t i = 0; i < words_per && empty; ++i) {
        empty = nxt[i] == 0;
      }
      if (empty) continue;
      dfa.set_transition(d, a, intern(nxt.data()));
    }
  }
  return dfa;
}

namespace {

/// Removes states of a DFA that are unreachable or unproductive, preserving
/// the language. Returns a partial DFA.
Dfa trim_dfa(const Dfa& dfa) {
  const Nfa as_nfa = dfa.to_nfa();
  DynBitset keep = as_nfa.reachable();
  keep &= as_nfa.productive();

  Dfa result(dfa.alphabet());
  std::vector<State> remap(dfa.num_states(), kNoState);
  for (State s = 0; s < dfa.num_states(); ++s) {
    if (keep.test(s)) remap[s] = result.add_state(dfa.is_accepting(s));
  }
  for (State s = 0; s < dfa.num_states(); ++s) {
    if (!keep.test(s)) continue;
    for (Symbol a = 0; a < dfa.alphabet()->size(); ++a) {
      const State t = dfa.next(s, a);
      if (t != kNoState && keep.test(t)) {
        result.set_transition(remap[s], a, remap[t]);
      }
    }
  }
  if (dfa.initial() != kNoState && keep.test(dfa.initial())) {
    result.set_initial(remap[dfa.initial()]);
  } else {
    const State s = result.add_state(false);
    result.set_initial(s);
  }
  return result;
}

}  // namespace

Dfa minimize(const Dfa& input, Budget* budget) {
  const Dfa dfa = input.complete();
  const std::size_t n = dfa.num_states();
  const std::size_t sigma = dfa.alphabet()->size();

  // Hopcroft's partition-refinement algorithm.
  std::vector<std::vector<std::vector<State>>> pred(
      sigma, std::vector<std::vector<State>>(n));
  for (State s = 0; s < n; ++s) {
    for (Symbol a = 0; a < sigma; ++a) {
      pred[a][dfa.next(s, a)].push_back(s);
    }
  }

  std::vector<std::uint32_t> block_of(n, 0);
  std::vector<std::vector<State>> blocks;
  {
    std::vector<State> acc;
    std::vector<State> rej;
    for (State s = 0; s < n; ++s) {
      (dfa.is_accepting(s) ? acc : rej).push_back(s);
    }
    if (!acc.empty()) blocks.push_back(std::move(acc));
    if (!rej.empty()) blocks.push_back(std::move(rej));
    for (std::uint32_t b = 0; b < blocks.size(); ++b) {
      for (const State s : blocks[b]) block_of[s] = b;
    }
  }

  std::deque<std::pair<std::uint32_t, Symbol>> work;
  for (Symbol a = 0; a < sigma; ++a) {
    for (std::uint32_t b = 0; b < blocks.size(); ++b) work.emplace_back(b, a);
  }

  std::vector<State> touched;            // states with a predecessor in splitter
  std::vector<std::uint32_t> touched_in; // per-block count of touched states
  touched_in.assign(blocks.size(), 0);
  std::vector<std::uint32_t> touched_blocks;

  while (!work.empty()) {
    budget_tick(budget);
    const auto [splitter, a] = work.front();
    work.pop_front();

    touched.clear();
    touched_blocks.clear();
    for (const State t : blocks[splitter]) {
      for (const State s : pred[a][t]) {
        touched.push_back(s);
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const State s : touched) {
      if (touched_in[block_of[s]]++ == 0) touched_blocks.push_back(block_of[s]);
    }

    for (const std::uint32_t b : touched_blocks) {
      const std::uint32_t cnt = touched_in[b];
      touched_in[b] = 0;
      if (cnt == blocks[b].size()) continue;  // block not split

      // Split block b into (touched, untouched).
      std::vector<State> in_set;
      std::vector<State> out_set;
      for (const State s : blocks[b]) {
        // Membership in `touched`: recompute via transition (cheap and
        // avoids an extra mark array reset).
        if (std::binary_search(touched.begin(), touched.end(), s)) {
          in_set.push_back(s);
        } else {
          out_set.push_back(s);
        }
      }
      const std::uint32_t nb = static_cast<std::uint32_t>(blocks.size());
      const bool keep_in_b = in_set.size() >= out_set.size();
      std::vector<State>& small = keep_in_b ? out_set : in_set;
      std::vector<State>& large = keep_in_b ? in_set : out_set;
      blocks[b] = std::move(large);
      blocks.push_back(std::move(small));
      touched_in.push_back(0);
      for (const State s : blocks[nb]) block_of[s] = nb;
      for (Symbol c = 0; c < sigma; ++c) work.emplace_back(nb, c);
    }
  }

  // Build the quotient automaton.
  Dfa quotient(dfa.alphabet());
  for (std::uint32_t b = 0; b < blocks.size(); ++b) {
    quotient.add_state(dfa.is_accepting(blocks[b].front()));
  }
  for (std::uint32_t b = 0; b < blocks.size(); ++b) {
    const State rep = blocks[b].front();
    for (Symbol a = 0; a < sigma; ++a) {
      quotient.set_transition(b, a, block_of[dfa.next(rep, a)]);
    }
  }
  quotient.set_initial(block_of[dfa.initial()]);
  return trim_dfa(quotient);
}

Dfa complement(const Dfa& input) {
  Dfa dfa = input.complete();
  Dfa result(dfa.alphabet());
  for (State s = 0; s < dfa.num_states(); ++s) {
    result.add_state(!dfa.is_accepting(s));
  }
  for (State s = 0; s < dfa.num_states(); ++s) {
    for (Symbol a = 0; a < dfa.alphabet()->size(); ++a) {
      result.set_transition(s, a, dfa.next(s, a));
    }
  }
  result.set_initial(dfa.initial());
  return result;
}

PairProduct pair_product(const Nfa& a, const Nfa& b, Budget* budget) {
  require_same_alphabet(a.alphabet(), b.alphabet(), "pair_product");
  a.finalize();
  b.finalize();

  PairProduct product;
  const auto intern = [&](State p, State q) -> State {
    const State pair[2] = {p, q};
    const auto [id, fresh] = product.pairs.intern(pair);
    if (fresh) budget_charge(budget);
    return id;
  };

  for (const State p : a.initial()) {
    for (const State q : b.initial()) {
      const State id = intern(p, q);
      if (std::find(product.initial.begin(), product.initial.end(), id) ==
          product.initial.end()) {
        product.initial.push_back(id);
      }
    }
  }
  // Pairs are expanded in id order and each appends its successors as it
  // goes, so the edges come out grouped by source without a sort.
  for (State s = 0; s < product.size(); ++s) {
    budget_tick(budget);
    product.edge_off.push_back(
        static_cast<std::uint32_t>(product.edges.size()));
    const State p = product.left(s);
    const State q = product.right(s);
    const std::uint32_t first = a.first_edge(p);
    const std::span<const Transition> ea = a.out(p);
    for (std::size_t i = 0; i < ea.size();) {
      const Symbol sym = ea[i].symbol;
      std::size_t end = i;
      while (end < ea.size() && ea[end].symbol == sym) ++end;
      const std::span<const Transition> eb = b.block(q, sym);
      for (; i < end; ++i) {
        for (const Transition& tb : eb) {
          product.edges.push_back(
              Transition{sym, intern(ea[i].target, tb.target)});
          product.left_edge.push_back(first + static_cast<std::uint32_t>(i));
        }
      }
    }
  }
  product.edge_off.push_back(static_cast<std::uint32_t>(product.edges.size()));
  return product;
}

Nfa PairProduct::to_nfa(const AlphabetRef& sigma, bool accepting) const {
  Nfa result(sigma);
  for (State s = 0; s < size(); ++s) result.add_state(accepting);
  for (const State s : initial) result.set_initial(s);
  for (State s = 0; s < size(); ++s) {
    for (std::uint32_t e = edge_off[s]; e < edge_off[s + 1]; ++e) {
      result.add_transition(s, edges[e].symbol, edges[e].target);
    }
  }
  return result;
}

Nfa intersect(const Nfa& a, const Nfa& b) {
  const PairProduct product = pair_product(a, b);
  Nfa result = product.to_nfa(a.alphabet(), false);
  for (State s = 0; s < product.size(); ++s) {
    result.set_accepting(
        s, a.is_accepting(product.left(s)) && b.is_accepting(product.right(s)));
  }
  return result;
}

Nfa union_nfa(const Nfa& a, const Nfa& b) {
  require_same_alphabet(a.alphabet(), b.alphabet(), "union_nfa");
  Nfa result(a.alphabet());
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

Nfa reverse_nfa(const Nfa& a) {
  Nfa result(a.alphabet());
  for (State s = 0; s < a.num_states(); ++s) {
    // Initial states of the reverse are the accepting states of a, and
    // vice versa; a state can be both.
    result.add_state(false);
  }
  for (State s = 0; s < a.num_states(); ++s) {
    for (const auto& t : a.out(s)) {
      result.add_transition(t.target, t.symbol, s);
    }
  }
  for (State s = 0; s < a.num_states(); ++s) {
    if (a.is_accepting(s)) result.set_initial(s);
  }
  for (const State s : a.initial()) result.set_accepting(s, true);
  return result;
}

Nfa concat_nfa(const Nfa& a, const Nfa& b) {
  require_same_alphabet(a.alphabet(), b.alphabet(), "concat_nfa");
  // ε ∈ L(b) makes a's accepting states accepting in the concatenation.
  bool b_has_epsilon = false;
  for (const State s : b.initial()) {
    b_has_epsilon = b_has_epsilon || b.is_accepting(s);
  }

  Nfa result(a.alphabet());
  for (State s = 0; s < a.num_states(); ++s) {
    result.add_state(a.is_accepting(s) && b_has_epsilon);
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
  // Bridge: from a's accepting states, take b's initial out-edges.
  for (State s = 0; s < a.num_states(); ++s) {
    if (!a.is_accepting(s)) continue;
    for (const State bi : b.initial()) {
      for (const auto& t : b.out(bi)) {
        result.add_transition_unique(s, t.symbol, offset + t.target);
      }
    }
  }
  for (const State s : a.initial()) result.set_initial(s);
  return result;
}

Nfa star_nfa(const Nfa& a) {
  Nfa result(a.alphabet());
  const State start = result.add_state(true);  // accepts ε
  for (State s = 0; s < a.num_states(); ++s) {
    result.add_state(a.is_accepting(s));
  }
  auto shifted = [](State s) { return static_cast<State>(s + 1); };
  for (State s = 0; s < a.num_states(); ++s) {
    for (const auto& t : a.out(s)) {
      result.add_transition(shifted(s), t.symbol, shifted(t.target));
    }
  }
  // From the fresh start and from every accepting state, restart a.
  for (const State i : a.initial()) {
    for (const auto& t : a.out(i)) {
      result.add_transition_unique(start, t.symbol, shifted(t.target));
      for (State s = 0; s < a.num_states(); ++s) {
        if (a.is_accepting(s)) {
          result.add_transition_unique(shifted(s), t.symbol,
                                       shifted(t.target));
        }
      }
    }
  }
  result.set_initial(start);
  return result;
}

Nfa trim(const Nfa& nfa) {
  DynBitset keep = nfa.reachable();
  keep &= nfa.productive();

  Nfa result(nfa.alphabet());
  std::vector<State> remap(nfa.num_states(), kNoState);
  for (State s = 0; s < nfa.num_states(); ++s) {
    if (keep.test(s)) remap[s] = result.add_state(nfa.is_accepting(s));
  }
  for (State s = 0; s < nfa.num_states(); ++s) {
    if (!keep.test(s)) continue;
    for (const auto& t : nfa.out(s)) {
      if (keep.test(t.target)) {
        result.add_transition(remap[s], t.symbol, remap[t.target]);
      }
    }
  }
  for (const State s : nfa.initial()) {
    if (keep.test(s)) result.set_initial(remap[s]);
  }
  return result;
}

Nfa prefix_language(const Nfa& nfa) {
  Nfa result = trim(nfa);
  for (State s = 0; s < result.num_states(); ++s) {
    result.set_accepting(s, true);
  }
  return result;
}

bool is_empty(const Nfa& nfa) {
  return !nfa.reachable().any_of(
      [&](std::size_t s) { return nfa.is_accepting(static_cast<State>(s)); });
}

namespace {

/// Union-find for Hopcroft–Karp equivalence testing.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// Merges the classes of a and b; returns false when already merged.
  bool merge(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// Hopcroft–Karp: are the languages from state `p` of complete DFA `a` and
/// state `q` of complete DFA `b` equal?
bool hk_equivalent(const Dfa& a, State p, const Dfa& b, State q) {
  assert(a.is_complete() && b.is_complete());
  assert(a.alphabet() == b.alphabet());
  const std::size_t na = a.num_states();
  UnionFind uf(na + b.num_states());
  std::vector<std::pair<State, State>> work;
  if (!uf.merge(p, na + q)) return true;
  work.emplace_back(p, q);
  while (!work.empty()) {
    const auto [x, y] = work.back();
    work.pop_back();
    if (a.is_accepting(x) != b.is_accepting(y)) return false;
    for (Symbol c = 0; c < a.alphabet()->size(); ++c) {
      const State nx = a.next(x, c);
      const State ny = b.next(y, c);
      if (uf.merge(nx, na + ny)) work.emplace_back(nx, ny);
    }
  }
  return true;
}

}  // namespace

bool dfa_equivalent(const Dfa& a, const Dfa& b) {
  const Dfa ca = a.complete();
  const Dfa cb = b.complete();
  return hk_equivalent(ca, ca.initial(), cb, cb.initial());
}

bool residual_equivalent(const Dfa& a, State p, const Dfa& b, State q) {
  const Dfa ca = a.complete();
  const Dfa cb = b.complete();
  // complete() appends the sink, so original state ids are stable; kNoState
  // inputs denote the sink itself.
  const State pp = (p == kNoState) ? static_cast<State>(ca.num_states() - 1) : p;
  const State qq = (q == kNoState) ? static_cast<State>(cb.num_states() - 1) : q;
  return hk_equivalent(ca, pp, cb, qq);
}

bool is_prefix_closed(const Nfa& nfa) {
  // L is prefix-closed iff pre(L) ⊆ L, iff pre(L) = L.
  const Dfa dl = minimize(determinize(nfa));
  const Dfa dp = minimize(determinize(prefix_language(nfa)));
  return dfa_equivalent(dl, dp);
}

std::vector<Word> enumerate_words(const Nfa& nfa, std::size_t max_len,
                                  std::size_t limit) {
  std::vector<Word> result;
  const std::size_t n = nfa.num_states();
  DynBitset init(n);
  for (const State s : nfa.initial()) init.set(s);

  struct Item {
    Word word;
    DynBitset states;
  };
  std::queue<Item> queue;
  queue.push({{}, init});
  while (!queue.empty()) {
    Item item = std::move(queue.front());
    queue.pop();
    const bool acc =
        item.states.any_of([&](std::size_t s) { return nfa.is_accepting(s); });
    if (acc) {
      result.push_back(item.word);
      if (result.size() > limit) {
        throw std::length_error("enumerate_words: limit exceeded");
      }
    }
    if (item.word.size() == max_len) continue;
    for (Symbol a = 0; a < nfa.alphabet()->size(); ++a) {
      DynBitset next = nfa.step(item.states, a);
      if (next.none()) continue;
      Word w = item.word;
      w.push_back(a);
      queue.push({std::move(w), std::move(next)});
    }
  }
  return result;
}

std::optional<Word> shortest_word(const Nfa& nfa) {
  const std::size_t n = nfa.num_states();
  std::vector<std::pair<State, Transition>> parent(
      n, {kNoState, {0, kNoState}});
  DynBitset seen(n);
  std::queue<State> queue;
  for (const State s : nfa.initial()) {
    if (!seen.test(s)) {
      seen.set(s);
      queue.push(s);
    }
  }
  State hit = kNoState;
  while (!queue.empty() && hit == kNoState) {
    const State s = queue.front();
    queue.pop();
    if (nfa.is_accepting(s)) {
      hit = s;
      break;
    }
    for (const auto& t : nfa.out(s)) {
      if (!seen.test(t.target)) {
        seen.set(t.target);
        parent[t.target] = {s, t};
        queue.push(t.target);
      }
    }
  }
  if (hit == kNoState) return std::nullopt;
  Word w;
  State s = hit;
  while (parent[s].first != kNoState) {
    w.push_back(parent[s].second.symbol);
    s = parent[s].first;
  }
  std::reverse(w.begin(), w.end());
  return w;
}

std::vector<std::uint64_t> count_words(const Nfa& nfa, std::size_t max_len) {
  // Count over the determinized automaton so runs are unambiguous.
  const Dfa dfa = determinize(nfa);
  std::vector<std::uint64_t> counts(max_len + 1, 0);
  std::vector<std::uint64_t> at(dfa.num_states(), 0);
  at[dfa.initial()] = 1;
  auto saturating_add = [](std::uint64_t a, std::uint64_t b) {
    const std::uint64_t s = a + b;
    return (s < a) ? ~std::uint64_t{0} : s;
  };
  for (std::size_t len = 0; len <= max_len; ++len) {
    for (State s = 0; s < dfa.num_states(); ++s) {
      if (at[s] != 0 && dfa.is_accepting(s)) {
        counts[len] = saturating_add(counts[len], at[s]);
      }
    }
    if (len == max_len) break;
    std::vector<std::uint64_t> next(dfa.num_states(), 0);
    for (State s = 0; s < dfa.num_states(); ++s) {
      if (at[s] == 0) continue;
      for (Symbol a = 0; a < dfa.alphabet()->size(); ++a) {
        const State t = dfa.next(s, a);
        if (t != kNoState) next[t] = saturating_add(next[t], at[s]);
      }
    }
    at = std::move(next);
  }
  return counts;
}

Nfa remap_alphabet(const Nfa& nfa, AlphabetRef target) {
  std::vector<Symbol> translate(nfa.alphabet()->size());
  for (Symbol a = 0; a < nfa.alphabet()->size(); ++a) {
    translate[a] = target->id(nfa.alphabet()->name(a));
  }
  Nfa result(std::move(target));
  for (State s = 0; s < nfa.num_states(); ++s) {
    result.add_state(nfa.is_accepting(s));
  }
  for (State s = 0; s < nfa.num_states(); ++s) {
    for (const auto& t : nfa.out(s)) {
      result.add_transition(s, translate[t.symbol], t.target);
    }
  }
  for (const State s : nfa.initial()) result.set_initial(s);
  return result;
}

}  // namespace rlv
