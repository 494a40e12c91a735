#include "rlv/comp/abstraction.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

#include "rlv/util/intern.hpp"

namespace rlv {

namespace {

/// Successors of configuration `id` on concrete symbol `a`, interned into
/// `configs` (dense ids, so closure sets are sets of small integers) and
/// appended to `out` in odometer order.
void successors_on(const std::vector<Component>& components,
                   TupleInterner<State>& configs, std::uint32_t id, Symbol a,
                   std::vector<std::uint32_t>& out) {
  const std::size_t k = components.size();
  static thread_local std::vector<std::vector<State>> succs;
  static thread_local std::vector<State> next;
  succs.resize(k);
  next.resize(k);
  const State* config = configs.at(id);
  for (std::size_t i = 0; i < k; ++i) {
    if (!components[i].participates.test(a)) {
      succs[i] = {config[i]};
      continue;
    }
    succs[i] = components[i].automaton.successors(config[i], a);
    if (succs[i].empty()) return;  // not enabled
  }
  // `config` is not read past this point: interning may move it.
  std::vector<std::size_t> index(k, 0);
  while (true) {
    for (std::size_t i = 0; i < k; ++i) next[i] = succs[i][index[i]];
    out.push_back(configs.intern(next.data()).first);
    std::size_t i = 0;
    for (; i < k; ++i) {
      if (++index[i] < succs[i].size()) break;
      index[i] = 0;
    }
    if (i == k) break;
  }
}

}  // namespace

OnTheFlyResult on_the_fly_abstraction(const std::vector<Component>& components,
                                      const Homomorphism& h,
                                      const OnTheFlyOptions& options) {
  assert(!components.empty());
  const AlphabetRef sigma = components.front().automaton.alphabet();
  assert(sigma == h.source());

  // Hidden and per-target-letter preimage symbol lists.
  std::vector<Symbol> hidden = h.hidden_letters();
  std::vector<std::vector<Symbol>> preimages(h.target()->size());
  for (Symbol a = 0; a < sigma->size(); ++a) {
    if (const auto mapped = h.apply(a)) preimages[*mapped].push_back(a);
  }

  TupleInterner<State> table(components.size());

  // Closure of a set of configuration ids under hidden moves.
  auto close = [&](std::vector<std::uint32_t> seed) {
    std::vector<bool> in_set;
    auto mark = [&](std::uint32_t id) {
      if (id >= in_set.size()) in_set.resize(id + 1, false);
      if (in_set[id]) return false;
      in_set[id] = true;
      return true;
    };
    std::vector<std::uint32_t> result;
    std::vector<std::uint32_t> work;
    for (const std::uint32_t id : seed) {
      if (mark(id)) {
        result.push_back(id);
        work.push_back(id);
      }
    }
    std::vector<std::uint32_t> next;
    while (!work.empty()) {
      const std::uint32_t id = work.back();
      work.pop_back();
      for (const Symbol a : hidden) {
        next.clear();
        successors_on(components, table, id, a, next);
        for (const std::uint32_t nid : next) {
          if (mark(nid)) {
            result.push_back(nid);
            work.push_back(nid);
          }
        }
      }
    }
    std::sort(result.begin(), result.end());
    return result;
  };

  OnTheFlyResult out{Dfa(h.target()), 0, false};

  std::map<std::vector<std::uint32_t>, State> ids;
  std::vector<std::vector<std::uint32_t>> sets;

  std::vector<State> initial(components.size());
  for (std::size_t i = 0; i < components.size(); ++i) {
    assert(components[i].automaton.initial().size() == 1);
    initial[i] = components[i].automaton.initial().front();
  }

  auto intern_set = [&](std::vector<std::uint32_t> set) -> State {
    auto [it, inserted] = ids.emplace(std::move(set), kNoState);
    if (inserted) {
      it->second = out.abstract.add_state(true);
      sets.push_back(it->first);
    }
    return it->second;
  };

  const State start =
      intern_set(close({table.intern(initial.data()).first}));
  out.abstract.set_initial(start);

  for (State s = 0; s < sets.size(); ++s) {
    if (out.abstract.num_states() > options.max_abstract_states) {
      out.truncated = true;
      break;
    }
    const std::vector<std::uint32_t> current = sets[s];  // copy: sets grows
    for (Symbol b = 0; b < h.target()->size(); ++b) {
      std::vector<std::uint32_t> seed;
      for (const std::uint32_t id : current) {
        for (const Symbol a : preimages[b]) {
          successors_on(components, table, id, a, seed);
        }
      }
      if (seed.empty()) continue;
      const State target = intern_set(close(std::move(seed)));
      out.abstract.set_transition(s, b, target);
    }
  }
  out.configurations_touched = table.size();
  return out;
}

}  // namespace rlv
