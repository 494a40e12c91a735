#include "rlv/omega/complement.hpp"

#include <cstdint>
#include <utility>
#include <vector>

#include "rlv/util/intern.hpp"

namespace rlv {

namespace {

// A complement state: ranking (-1 = undefined / state absent) plus the
// obligation set, encoded into one width-2n tuple (O bits appended).
using Key = std::vector<std::int32_t>;

struct Builder {
  const Buchi& a;
  std::size_t n;
  std::int32_t max_rank;
  Buchi result;
  TupleInterner<std::int32_t> keys;
  std::vector<State> state_of;         // key id -> result state
  std::vector<std::uint32_t> pending;  // key ids not yet expanded
  State sink = kNoState;
  Budget* budget;

  explicit Builder(const Buchi& input, Budget* b)
      : a(input),
        n(input.num_states()),
        max_rank(static_cast<std::int32_t>(2 * input.num_states())),
        result(input.alphabet()),
        keys(2 * input.num_states()),
        budget(b) {}

  State intern(const Key& key) {
    const auto [id, fresh] = keys.intern(key.data());
    if (fresh) {
      budget_charge(budget);
      // Accepting iff the obligation set (second half of the key) is empty.
      bool obligations = false;
      for (std::size_t q = 0; q < n; ++q) {
        obligations = obligations || (key[n + q] != 0);
      }
      state_of.push_back(result.add_state(!obligations));
      pending.push_back(id);
    }
    return state_of[id];
  }

  State accepting_sink() {
    if (sink == kNoState) {
      sink = result.add_state(true);
      for (Symbol c = 0; c < a.alphabet()->size(); ++c) {
        result.add_transition(sink, c, sink);
      }
    }
    return sink;
  }

  /// Enumerates all successor rankings of `key` (the key of result state
  /// `from`) under `symbol` and adds the corresponding transitions.
  void expand(const Key& key, State from, Symbol symbol) {
    // Successor domain and per-state rank bounds.
    std::vector<std::int32_t> bound(n, -1);
    bool any = false;
    for (std::size_t q = 0; q < n; ++q) {
      if (key[q] < 0) continue;
      for (const auto& t : a.out(static_cast<State>(q))) {
        if (t.symbol != symbol) continue;
        any = true;
        if (bound[t.target] < 0 || key[q] < bound[t.target]) {
          bound[t.target] = key[q];
        }
      }
    }
    if (!any) {
      // No run survives: every continuation is outside L(a).
      result.add_transition(from, symbol, accepting_sink());
      return;
    }

    // Obligation propagation: states reached from O under `symbol`.
    DynBitset o_next(n);
    bool o_empty = true;
    for (std::size_t q = 0; q < n; ++q) {
      if (key[n + q] == 0) continue;
      o_empty = false;
      for (const auto& t : a.out(static_cast<State>(q))) {
        if (t.symbol == symbol) o_next.set(t.target);
      }
    }

    // Recursive enumeration of rankings g with g(q') in [0, bound(q')],
    // even on accepting states.
    std::vector<std::size_t> domain;
    for (std::size_t q = 0; q < n; ++q) {
      if (bound[q] >= 0) domain.push_back(q);
    }
    Key g(2 * n, -1);
    for (std::size_t q = 0; q < n; ++q) g[n + q] = 0;

    auto emit = [&]() {
      // O' = (O nonempty ? δ(O) : D') restricted to even-g states.
      for (std::size_t q = 0; q < n; ++q) g[n + q] = 0;
      for (const std::size_t q : domain) {
        if (g[q] % 2 != 0) continue;
        const bool carried = o_empty ? true : o_next.test(q);
        if (carried) g[n + q] = 1;
      }
      result.add_transition(from, symbol, intern(g));
    };

    // Iterative odometer over the domain ranks.
    std::vector<std::int32_t> step(domain.size());
    for (std::size_t i = 0; i < domain.size(); ++i) {
      const std::size_t q = domain[i];
      g[q] = 0;
      step[i] = a.is_accepting(static_cast<State>(q)) ? 2 : 1;
    }
    while (true) {
      budget_tick(budget);
      emit();
      std::size_t i = 0;
      for (; i < domain.size(); ++i) {
        const std::size_t q = domain[i];
        g[q] += step[i];
        if (g[q] <= bound[q]) break;
        g[q] = 0;
      }
      if (i == domain.size()) break;
    }
  }
};

}  // namespace

Buchi complement_buchi(const Buchi& a, Budget* budget) {
  StageScope scope(budget, Stage::kComplement);
  Builder b(a, budget);

  Key init(2 * a.num_states(), -1);
  for (std::size_t q = 0; q < a.num_states(); ++q) init[a.num_states() + q] = 0;
  bool has_initial = false;
  for (const State q : a.initial()) {
    init[q] = b.max_rank;
    has_initial = true;
  }
  if (!has_initial) {
    // L(a) = ∅: complement is Σ^ω.
    Buchi all(a.alphabet());
    const State s = all.add_state(true);
    for (Symbol c = 0; c < a.alphabet()->size(); ++c) {
      all.add_transition(s, c, s);
    }
    all.set_initial(s);
    return all;
  }
  b.result.set_initial(b.intern(init));

  Key key;
  while (!b.pending.empty()) {
    const std::uint32_t id = b.pending.back();
    b.pending.pop_back();
    // Copy: interning successors grows the key storage.
    key.assign(b.keys.at(id), b.keys.at(id) + 2 * a.num_states());
    for (Symbol c = 0; c < a.alphabet()->size(); ++c) {
      b.expand(key, b.state_of[id], c);
    }
  }
  return std::move(b.result);
}

}  // namespace rlv
