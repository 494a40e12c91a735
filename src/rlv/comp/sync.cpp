#include "rlv/comp/sync.hpp"

#include <cassert>
#include <vector>

#include "rlv/util/intern.hpp"

namespace rlv {

DynBitset participation(const AlphabetRef& sigma,
                        const std::vector<std::string>& actions) {
  DynBitset bits(sigma->size());
  for (const auto& action : actions) {
    bits.set(sigma->id(action));
  }
  return bits;
}

Nfa sync_product(const std::vector<Component>& components) {
  assert(!components.empty());
  const AlphabetRef sigma = components.front().automaton.alphabet();
  const std::size_t k = components.size();
  for ([[maybe_unused]] const Component& c : components) {
    assert(c.automaton.alphabet() == sigma);
    assert(c.automaton.initial().size() == 1 &&
           "sync_product expects deterministic initial configurations");
  }

  // Configuration ids are the product's state ids (first-seen order).
  Nfa product(sigma);
  TupleInterner<State> configs(k);
  std::vector<State> worklist;
  std::vector<State> config(k);

  auto intern = [&](const std::vector<State>& c) -> State {
    const auto [id, fresh] = configs.intern(c.data());
    if (fresh) {
      product.add_state(true);
      worklist.push_back(id);
    }
    return id;
  };

  for (std::size_t i = 0; i < k; ++i) {
    config[i] = components[i].automaton.initial().front();
  }
  product.set_initial(intern(config));

  // Successor exploration: for each symbol, the participating components
  // each contribute their successor sets; the non-participating stay put.
  std::vector<std::vector<State>> succs(k);
  std::vector<State> next(k);
  while (!worklist.empty()) {
    const State from = worklist.back();
    worklist.pop_back();
    // Copy: interning successors grows the configuration storage.
    config.assign(configs.at(from), configs.at(from) + k);

    for (Symbol a = 0; a < sigma->size(); ++a) {
      bool enabled = true;
      for (std::size_t i = 0; i < k && enabled; ++i) {
        if (!components[i].participates.test(a)) {
          succs[i] = {config[i]};
          continue;
        }
        succs[i] = components[i].automaton.successors(config[i], a);
        enabled = !succs[i].empty();
      }
      if (!enabled) continue;

      // Cross product of per-component successors (odometer).
      std::vector<std::size_t> index(k, 0);
      while (true) {
        for (std::size_t i = 0; i < k; ++i) next[i] = succs[i][index[i]];
        product.add_transition(from, a, intern(next));
        std::size_t i = 0;
        for (; i < k; ++i) {
          if (++index[i] < succs[i].size()) break;
          index[i] = 0;
        }
        if (i == k) break;
      }
    }
  }
  return product;
}

}  // namespace rlv
