#include "rlv/omega/streett.hpp"

#include <algorithm>
#include <queue>

#include "rlv/util/scc.hpp"

namespace rlv {

StreettAutomaton::StreettAutomaton(Nfa structure)
    : structure_(std::move(structure)) {
  edge_offset_.reserve(structure_.num_states() + 1);
  for (State s = 0; s < structure_.num_states(); ++s) {
    edge_offset_.push_back(static_cast<EdgeId>(edge_source_.size()));
    for (std::uint32_t i = 0; i < structure_.out(s).size(); ++i) {
      edge_source_.push_back(s);
      edge_index_.push_back(i);
    }
  }
  edge_offset_.push_back(static_cast<EdgeId>(edge_source_.size()));
}

namespace {

/// Recursive restriction search. `alive` is the current edge subset; returns
/// the edge set of a fair SCC (`refine` removes nothing from it), or nullopt.
std::optional<DynBitset> fair_scc_edges(const StreettAutomaton& a,
                                        const DynBitset& alive,
                                        const SccRefiner& refine,
                                        Budget* budget) {
  const std::size_t n = a.structure().num_states();

  // SCCs of the subgraph induced by `alive` edges.
  std::vector<std::vector<std::uint32_t>> succ(n);
  alive.for_each([&](std::size_t e) {
    budget_tick(budget);
    succ[a.edge_source(static_cast<EdgeId>(e))].push_back(
        a.edge(static_cast<EdgeId>(e)).target);
  });
  const SccResult scc = tarjan_scc(succ);

  // The alive edges internal to each SCC, as id lists: one bitset per SCC
  // would cost components × edges bits.
  std::vector<std::vector<EdgeId>> internal(scc.count);
  alive.for_each([&](std::size_t e) {
    const EdgeId id = static_cast<EdgeId>(e);
    const std::uint32_t cs = scc.component[a.edge_source(id)];
    if (cs == scc.component[a.edge(id).target]) internal[cs].push_back(id);
  });

  for (std::uint32_t c = 0; c < scc.count; ++c) {
    if (internal[c].empty()) continue;  // trivial SCC
    budget_tick(budget);
    DynBitset edges = a.edge_set();
    for (const EdgeId e : internal[c]) edges.set(e);
    const DynBitset removed = refine(edges);
    if (removed.none()) return edges;
    edges -= removed;
    if (edges.none()) continue;
    if (auto sub = fair_scc_edges(a, edges, refine, budget)) return sub;
  }
  return std::nullopt;
}

/// Is any state of `target_states` reachable from an initial state?
/// Returns a path (word + final state) via BFS over the full structure.
std::optional<std::pair<Word, State>> reach_from_init(
    const Nfa& nfa, const DynBitset& target_states) {
  const std::size_t n = nfa.num_states();
  std::vector<std::pair<State, Symbol>> parent(n, {kNoState, 0});
  std::vector<bool> seen(n, false);
  std::queue<State> queue;
  for (const State s : nfa.initial()) {
    if (!seen[s]) {
      seen[s] = true;
      queue.push(s);
    }
  }
  while (!queue.empty()) {
    const State s = queue.front();
    queue.pop();
    if (target_states.test(s)) {
      Word w;
      for (State v = s; parent[v].first != kNoState; v = parent[v].first) {
        w.push_back(parent[v].second);
      }
      std::reverse(w.begin(), w.end());
      return std::make_pair(std::move(w), s);
    }
    for (const auto& t : nfa.out(s)) {
      if (!seen[t.target]) {
        seen[t.target] = true;
        parent[t.target] = {s, t.symbol};
        queue.push(t.target);
      }
    }
  }
  return std::nullopt;
}

DynBitset states_of_edges(const StreettAutomaton& a, const DynBitset& edges) {
  DynBitset states(a.structure().num_states());
  edges.for_each([&](std::size_t e) {
    states.set(a.edge_source(static_cast<EdgeId>(e)));
    states.set(a.edge(static_cast<EdgeId>(e)).target);
  });
  return states;
}

/// Shortest path between two states using only `edges`; returns the word.
Word path_within(const StreettAutomaton& a, const DynBitset& edges, State from,
                 State to) {
  if (from == to) return {};
  const std::size_t n = a.structure().num_states();
  std::vector<std::pair<State, Symbol>> parent(n, {kNoState, 0});
  std::vector<bool> seen(n, false);
  seen[from] = true;
  std::queue<State> queue;
  queue.push(from);
  while (!queue.empty()) {
    const State s = queue.front();
    queue.pop();
    for (EdgeId e = a.first_edge(s); e < a.first_edge(s + 1); ++e) {
      if (!edges.test(e)) continue;
      const Transition& t = a.edge(e);
      if (seen[t.target]) continue;
      seen[t.target] = true;
      parent[t.target] = {s, t.symbol};
      if (t.target == to) {
        Word w;
        for (State v = to; parent[v].first != kNoState; v = parent[v].first) {
          w.push_back(parent[v].second);
        }
        std::reverse(w.begin(), w.end());
        return w;
      }
      queue.push(t.target);
    }
  }
  return {};  // unreachable within a strongly connected edge set
}

}  // namespace

bool streett_nonempty(const StreettAutomaton& a, Budget* budget) {
  return find_fair_lasso(a, budget).has_value();
}

std::optional<Lasso> find_fair_lasso(const StreettAutomaton& a,
                                     Budget* budget) {
  return find_fair_lasso(
      a,
      [&a](const DynBitset& edges) {
        DynBitset removed = a.edge_set();
        for (const StreettPair& pair : a.pairs()) {
          if (pair.antecedent.intersects(edges) &&
              !pair.goal.intersects(edges)) {
            DynBitset doomed = pair.antecedent;
            doomed &= edges;
            removed |= doomed;
          }
        }
        return removed;
      },
      budget);
}

std::optional<Lasso> find_fair_lasso(const StreettAutomaton& a,
                                     const SccRefiner& refine,
                                     Budget* budget) {
  StageScope scope(budget, Stage::kEmptiness);
  // Restrict to edges reachable from the initial states.
  const DynBitset reach = a.structure().reachable();
  DynBitset alive = a.edge_set();
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    if (reach.test(a.edge_source(e))) alive.set(e);
  }

  const auto fair = fair_scc_edges(a, alive, refine, budget);
  if (!fair) return std::nullopt;

  const DynBitset scc_states = states_of_edges(a, *fair);
  auto entry = reach_from_init(a.structure(), scc_states);
  if (!entry) return std::nullopt;  // defensive; SCC built from reachable part

  // Build a period that traverses every edge of the fair SCC once: from the
  // entry state, repeatedly path to the next untraversed edge's source, take
  // it, and finally close back to the entry state.
  Word period;
  State at = entry->second;
  std::vector<EdgeId> todo;
  fair->for_each([&](std::size_t e) { todo.push_back(static_cast<EdgeId>(e)); });
  for (const EdgeId e : todo) {
    const Word hop = path_within(a, *fair, at, a.edge_source(e));
    period.insert(period.end(), hop.begin(), hop.end());
    period.push_back(a.edge(e).symbol);
    at = a.edge(e).target;
  }
  const Word back = path_within(a, *fair, at, entry->second);
  period.insert(period.end(), back.begin(), back.end());
  if (period.empty()) return std::nullopt;  // cannot happen: SCC has edges

  return Lasso{std::move(entry->first), std::move(period)};
}

}  // namespace rlv
