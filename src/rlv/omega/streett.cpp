#include "rlv/omega/streett.hpp"

#include <algorithm>
#include <span>

#include "rlv/util/scc.hpp"

namespace rlv {

StreettAutomaton::StreettAutomaton(AlphabetRef sigma,
                                   std::vector<State> initial,
                                   std::vector<EdgeId> edge_off,
                                   std::vector<Transition> edges)
    : sigma_(std::move(sigma)),
      initial_(std::move(initial)),
      edge_off_(std::move(edge_off)),
      edges_(std::move(edges)) {
  edge_source_.reserve(edges_.size());
  for (State s = 0; s + 1 < edge_off_.size(); ++s) {
    edge_source_.insert(edge_source_.end(), edge_off_[s + 1] - edge_off_[s], s);
  }
}

StreettAutomaton::StreettAutomaton(const Nfa& structure)
    : StreettAutomaton(
          structure.alphabet(), structure.initial(),
          [&] {
            std::vector<EdgeId> off(structure.num_states() + 1);
            for (State s = 0; s < off.size(); ++s) {
              off[s] = structure.first_edge(s);
            }
            return off;
          }(),
          {structure.edges().begin(), structure.edges().end()}) {}

namespace {

/// Recursive restriction search. `alive` is the current edge subset; returns
/// the edge set of a fair SCC (`refine` removes nothing from it), or nullopt.
/// Each level is one tarjan_scc pass over the automaton's own edge table
/// with `alive` as its mask. Each non-trivial SCC is refined as it closes,
/// its internal edges collected from its members, and what survives is
/// searched one level down; SCCs close in id order, as the search visits
/// them.
std::optional<DynBitset> fair_scc_edges(const StreettAutomaton& a,
                                        const DynBitset& alive,
                                        const SccRefiner& refine,
                                        Budget* budget) {
  std::optional<DynBitset> fair;
  (void)tarjan_scc(
      static_cast<std::uint32_t>(a.num_states()),
      [&](State s) { return a.first_edge(s); },
      [&](EdgeId e) { return a.edge(e).target; }, &alive,
      [&](std::uint32_t id, std::span<const State> members,
          const SccResult& scc) {
        if (fair || !scc.nontrivial[id]) return;
        DynBitset edges = a.edge_set();
        for (const State m : members) {
          for (EdgeId e = a.first_edge(m); e < a.first_edge(m + 1); ++e) {
            budget_tick(budget);
            if (alive.test(e) && scc.component[a.edge(e).target] == id) {
              edges.set(e);
            }
          }
        }
        const DynBitset removed = refine(edges);
        if (removed.none()) {
          fair = std::move(edges);
          return;
        }
        edges -= removed;
        if (edges.any()) fair = fair_scc_edges(a, edges, refine, budget);
      });
  return fair;
}

/// A breadth-first search tree: the states in the order reached, and each
/// one's parent (state and symbol; kNoState for the sources and for states
/// not reached).
struct BfsTree {
  std::vector<State> order;
  std::vector<std::pair<State, Symbol>> parent;

  /// The symbols along the tree path from a source to `s`.
  [[nodiscard]] Word word_to(State s) const {
    Word w;
    for (State v = s; parent[v].first != kNoState; v = parent[v].first) {
      w.push_back(parent[v].second);
    }
    std::reverse(w.begin(), w.end());
    return w;
  }
};

/// BFS from `sources` over the edges in `usable` (every edge when null),
/// stopping as soon as `stop` is reached.
BfsTree bfs(const StreettAutomaton& a, std::span<const State> sources,
            const DynBitset* usable, State stop = kNoState) {
  const std::size_t n = a.num_states();
  BfsTree tree{{}, std::vector<std::pair<State, Symbol>>(n, {kNoState, 0})};
  std::vector<bool> seen(n, false);
  for (const State s : sources) {
    if (!seen[s]) {
      seen[s] = true;
      tree.order.push_back(s);
    }
  }
  for (std::size_t head = 0; head < tree.order.size(); ++head) {
    const State s = tree.order[head];
    for (EdgeId e = a.first_edge(s); e < a.first_edge(s + 1); ++e) {
      const Transition& t = a.edge(e);
      if ((usable != nullptr && !usable->test(e)) || seen[t.target]) continue;
      seen[t.target] = true;
      tree.parent[t.target] = {s, t.symbol};
      if (t.target == stop) return tree;
      tree.order.push_back(t.target);
    }
  }
  return tree;
}

DynBitset states_of_edges(const StreettAutomaton& a, const DynBitset& edges) {
  DynBitset states(a.num_states());
  edges.for_each([&](std::size_t e) {
    states.set(a.edge_source(static_cast<EdgeId>(e)));
    states.set(a.edge(static_cast<EdgeId>(e)).target);
  });
  return states;
}

/// Shortest path between two states using only `edges`; returns the word
/// (empty when `to` is unreachable, which a strongly connected edge set
/// rules out).
Word path_within(const StreettAutomaton& a, const DynBitset& edges, State from,
                 State to) {
  if (from == to) return {};
  return bfs(a, {&from, 1}, &edges, to).word_to(to);
}

}  // namespace

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
  const BfsTree reach = bfs(a, a.initial(), nullptr);
  DynBitset alive = a.edge_set();
  for (const State s : reach.order) {
    for (EdgeId e = a.first_edge(s); e < a.first_edge(s + 1); ++e) {
      alive.set(e);
    }
  }

  const auto fair = fair_scc_edges(a, alive, refine, budget);
  if (!fair) return std::nullopt;

  // Enter the SCC at its state nearest to an initial state.
  const DynBitset scc_states = states_of_edges(a, *fair);
  const auto entry_it =
      std::find_if(reach.order.begin(), reach.order.end(),
                   [&](State s) { return scc_states.test(s); });
  if (entry_it == reach.order.end()) return std::nullopt;  // cannot happen
  const State entry = *entry_it;
  Word prefix = reach.word_to(entry);

  // Build a period that traverses every edge of the fair SCC once: from the
  // entry state, repeatedly path to the next untraversed edge's source, take
  // it, and finally close back to the entry state.
  Word period;
  State at = entry;
  std::vector<EdgeId> todo;
  fair->for_each([&](std::size_t e) { todo.push_back(static_cast<EdgeId>(e)); });
  for (const EdgeId e : todo) {
    const Word hop = path_within(a, *fair, at, a.edge_source(e));
    period.insert(period.end(), hop.begin(), hop.end());
    period.push_back(a.edge(e).symbol);
    at = a.edge(e).target;
  }
  const Word back = path_within(a, *fair, at, entry);
  period.insert(period.end(), back.begin(), back.end());
  if (period.empty()) return std::nullopt;  // cannot happen: SCC has edges

  return Lasso{std::move(prefix), std::move(period)};
}

}  // namespace rlv
