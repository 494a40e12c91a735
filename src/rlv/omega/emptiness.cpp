#include "rlv/omega/emptiness.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "rlv/util/scc.hpp"

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

std::optional<Lasso> find_accepting_lasso(const Buchi& a, Budget* budget) {
  StageScope scope(budget, Stage::kEmptiness);
  const std::size_t n = a.num_states();
  const Nfa& nfa = a.structure();
  const std::span<const Transition> edges = nfa.edges();
  const SccResult scc = tarjan_scc(
      static_cast<std::uint32_t>(n), [&](State s) { return nfa.first_edge(s); },
      [&](std::uint32_t e) { return edges[e].target; });

  // An anchor is an accepting state inside a non-trivial SCC: a cycle
  // through it exists, so it is live.
  auto is_anchor = [&](State s) {
    return a.is_accepting(s) && scc.nontrivial[scc.component[s]];
  };

  // BFS from initial states to the nearest anchor, recording parent edges.
  std::vector<std::pair<State, Symbol>> parent(n, {kNoState, 0});
  std::vector<bool> seen(n, false);
  std::queue<State> queue;
  for (const State s : a.initial()) {
    if (!seen[s]) {
      seen[s] = true;
      queue.push(s);
    }
  }
  State anchor = kNoState;
  while (!queue.empty()) {
    budget_tick(budget);
    const State s = queue.front();
    queue.pop();
    if (is_anchor(s)) {
      anchor = s;
      break;
    }
    for (const auto& t : a.out(s)) {
      if (!seen[t.target]) {
        seen[t.target] = true;
        parent[t.target] = {s, t.symbol};
        queue.push(t.target);
      }
    }
  }
  if (anchor == kNoState) return std::nullopt;

  Word prefix;
  for (State s = anchor; parent[s].first != kNoState; s = parent[s].first) {
    prefix.push_back(parent[s].second);
  }
  std::reverse(prefix.begin(), prefix.end());

  // BFS within the anchor's SCC for a non-empty cycle anchor -> anchor.
  const std::uint32_t comp = scc.component[anchor];
  std::vector<std::pair<State, Symbol>> cyc_parent(n, {kNoState, 0});
  std::vector<bool> cyc_seen(n, false);
  std::queue<State> cq;
  // Seed with anchor's in-SCC successors so the cycle is non-empty.
  State closer = kNoState;
  for (const auto& t : a.out(anchor)) {
    if (scc.component[t.target] != comp) continue;
    if (t.target == anchor) {
      // Self-loop: period is a single symbol.
      return Lasso{std::move(prefix), {t.symbol}};
    }
    if (!cyc_seen[t.target]) {
      cyc_seen[t.target] = true;
      cyc_parent[t.target] = {anchor, t.symbol};
      cq.push(t.target);
    }
  }
  while (!cq.empty() && closer == kNoState) {
    const State s = cq.front();
    cq.pop();
    for (const auto& t : a.out(s)) {
      if (scc.component[t.target] != comp) continue;
      if (t.target == anchor) {
        closer = s;
        Word period;
        period.push_back(t.symbol);
        for (State v = s; cyc_parent[v].first != kNoState;
             v = cyc_parent[v].first) {
          period.push_back(cyc_parent[v].second);
        }
        std::reverse(period.begin(), period.end());
        return Lasso{std::move(prefix), std::move(period)};
      }
      if (!cyc_seen[t.target]) {
        cyc_seen[t.target] = true;
        cyc_parent[t.target] = {s, t.symbol};
        cq.push(t.target);
      }
    }
  }
  return std::nullopt;  // unreachable for a live anchor
}

}  // namespace rlv
