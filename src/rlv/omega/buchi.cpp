#include "rlv/omega/buchi.hpp"

#include <utility>

namespace rlv {

Buchi degeneralize(GenBuchi gba, Budget* budget) {
  const std::size_t k = gba.sets.size();
  if (k <= 1) {
    // Zero sets: every infinite run accepts. One set: it is the Büchi set.
    for (State s = 0; s < gba.structure.num_states(); ++s) {
      gba.structure.set_accepting(s, k == 0 || gba.sets[0].test(s));
    }
    return Buchi::from_structure(std::move(gba.structure));
  }

  // State (s, level) means: waiting to see acceptance sets level..k-1; level
  // k is the "all seen" flag level whose states are accepting and reset to
  // level 0 on the next step. Only pairs reachable from the initial pairs
  // are built, in breadth-first order.
  const Nfa& in = gba.structure;
  const std::size_t n = in.num_states();
  Buchi result(in.alphabet());
  std::vector<State> ids(n * (k + 1), kNoState);
  std::vector<std::pair<State, std::size_t>> pairs;  // indexed by result id

  // Advances through every set `s` satisfies, starting from `level`
  // (state-based sets: membership of the visited state).
  const auto advance = [&](State s, std::size_t level) {
    while (level < k && gba.sets[level].test(s)) ++level;
    return level;
  };
  const auto intern = [&](State s, std::size_t level) -> State {
    State& id = ids[level * n + s];
    if (id == kNoState) {
      budget_charge(budget);
      id = result.add_state(level == k);
      pairs.emplace_back(s, level);
    }
    return id;
  };

  for (const State s : in.initial()) {
    // The initial level accounts for sets the initial state itself satisfies.
    result.set_initial(intern(s, advance(s, 0)));
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, level] = pairs[i];
    const std::size_t base = (level == k) ? 0 : level;
    for (const Transition& t : in.out(s)) {
      result.add_transition(static_cast<State>(i), t.symbol,
                            intern(t.target, advance(t.target, base)));
    }
  }
  return result;
}

}  // namespace rlv
