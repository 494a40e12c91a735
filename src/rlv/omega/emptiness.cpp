#include "rlv/omega/emptiness.hpp"

#include <algorithm>
#include <vector>

namespace rlv {

std::optional<Lasso> find_accepting_lasso_product(
    const std::vector<const Buchi*>& operands, Budget* budget) {
  StageScope scope(budget, Stage::kEmptiness);
  OnTheFlyProduct product(operands, budget);

  // CVWY nested DFS with witness extraction. The blue stack holds the DFS
  // path from an initial state; when the red search (run at the postorder
  // visit of an accepting state `seed`) reaches a state on the blue stack,
  // the lasso is: prefix = blue-stack word down to `seed`; period = red path
  // from `seed` to the hit state + blue-stack segment from the hit state
  // back down to `seed`.
  struct Frame {
    State state;
    std::size_t edge;
    Symbol via;  // symbol on the edge from the parent frame (unused at root)
  };

  std::vector<bool> blue;
  std::vector<bool> red;
  std::vector<bool> on_stack;
  auto ensure = [&](State s) {
    if (s >= blue.size()) {
      blue.resize(s + 1, false);
      red.resize(s + 1, false);
      on_stack.resize(s + 1, false);
    }
  };

  std::vector<Frame> blue_stack;

  // Red search from the accepting seed (the current top of the blue stack).
  // On a hit, returns the period of the lasso.
  auto red_search = [&](State seed) -> std::optional<Word> {
    std::vector<Frame> stack;
    if (!red[seed]) {
      red[seed] = true;
      stack.push_back({seed, 0, 0});
    }
    while (!stack.empty()) {
      budget_tick(budget);
      Frame& f = stack.back();
      const auto& edges = product.out(f.state);
      if (f.edge < edges.size()) {
        const Transition t = edges[f.edge++];
        ensure(t.target);
        if (on_stack[t.target]) {
          Word period;
          for (std::size_t i = 1; i < stack.size(); ++i) {
            period.push_back(stack[i].via);
          }
          period.push_back(t.symbol);
          // Blue segment: from just below the hit state down to the seed.
          std::size_t hit = blue_stack.size();
          for (std::size_t i = 0; i < blue_stack.size(); ++i) {
            if (blue_stack[i].state == t.target) {
              hit = i;
              break;
            }
          }
          for (std::size_t i = hit + 1; i < blue_stack.size(); ++i) {
            period.push_back(blue_stack[i].via);
          }
          return period;
        }
        if (!red[t.target]) {
          red[t.target] = true;
          stack.push_back({t.target, 0, t.symbol});
        }
      } else {
        stack.pop_back();
      }
    }
    return std::nullopt;
  };

  for (const State init : product.initial()) {
    ensure(init);
    if (blue[init]) continue;
    blue[init] = true;
    on_stack[init] = true;
    blue_stack.assign(1, {init, 0, 0});
    while (!blue_stack.empty()) {
      budget_tick(budget);
      Frame& f = blue_stack.back();
      const auto& edges = product.out(f.state);
      if (f.edge < edges.size()) {
        const Transition t = edges[f.edge++];
        ensure(t.target);
        if (!blue[t.target]) {
          blue[t.target] = true;
          on_stack[t.target] = true;
          blue_stack.push_back({t.target, 0, t.symbol});
        }
      } else {
        if (product.is_accepting(f.state)) {
          if (std::optional<Word> period = red_search(f.state)) {
            Word prefix;
            for (std::size_t i = 1; i < blue_stack.size(); ++i) {
              prefix.push_back(blue_stack[i].via);
            }
            return Lasso{std::move(prefix), std::move(*period)};
          }
        }
        on_stack[f.state] = false;
        blue_stack.pop_back();
      }
    }
  }
  return std::nullopt;
}

}  // namespace rlv
