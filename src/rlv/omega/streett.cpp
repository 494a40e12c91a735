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

/// Breadth-first search over the edges in `usable` (every edge when null).
/// The arrays are sized once per automaton; each run resets only the states
/// the run before it reached.
class Bfs {
 public:
  explicit Bfs(const StreettAutomaton& a)
      : a_(a), parent_(a.num_states(), kNoEdge), seen_(a.num_states(), false) {}

  /// Searches from `sources` until it reaches a state that satisfies `stop`
  /// (sources included) and returns it; kNoState when it reaches none.
  template <class Stop>
  State run(std::span<const State> sources, const DynBitset* usable,
            Stop stop) {
    for (const State s : order_) {
      seen_[s] = false;
      parent_[s] = kNoEdge;
    }
    order_.clear();
    for (const State s : sources) {
      if (seen_[s]) continue;
      seen_[s] = true;
      order_.push_back(s);
      if (stop(s)) return s;
    }
    for (std::size_t head = 0; head < order_.size(); ++head) {
      const State s = order_[head];
      for (EdgeId e = a_.first_edge(s); e < a_.first_edge(s + 1); ++e) {
        const State t = a_.edge(e).target;
        if ((usable != nullptr && !usable->test(e)) || seen_[t]) continue;
        seen_[t] = true;
        parent_[t] = e;
        order_.push_back(t);
        if (stop(t)) return t;
      }
    }
    return kNoState;
  }

  /// The states the last run reached, in the order it reached them.
  [[nodiscard]] const std::vector<State>& order() const { return order_; }

  /// The edges of the last run's tree path from a source to `s`.
  [[nodiscard]] std::span<const EdgeId> path_to(State s) {
    path_.clear();
    for (EdgeId e = parent_[s]; e != kNoEdge; e = parent_[a_.edge_source(e)]) {
      path_.push_back(e);
    }
    std::reverse(path_.begin(), path_.end());
    return path_;
  }

 private:
  static constexpr EdgeId kNoEdge = ~EdgeId{0};

  const StreettAutomaton& a_;
  std::vector<EdgeId> parent_;
  std::vector<bool> seen_;
  std::vector<State> order_;
  std::vector<EdgeId> path_;
};

DynBitset states_of_edges(const StreettAutomaton& a, const DynBitset& edges) {
  DynBitset states(a.num_states());
  edges.for_each([&](std::size_t e) {
    states.set(a.edge_source(static_cast<EdgeId>(e)));
    states.set(a.edge(static_cast<EdgeId>(e)).target);
  });
  return states;
}

/// A closed walk from `entry` that traverses every edge in `fair` (a
/// strongly connected edge set through `entry`): it takes an untraversed
/// edge wherever there is one, and only when stuck follows a shortest path
/// to the nearest state that still has one; then it returns to `entry`.
Word covering_walk(const StreettAutomaton& a, const DynBitset& fair,
                   State entry, Bfs& bfs) {
  DynBitset todo = fair;
  std::size_t left = todo.count();
  // cursor[s]: the first edge of s not yet known to be traversed.
  std::vector<EdgeId> cursor(a.num_states());
  for (State s = 0; s < cursor.size(); ++s) cursor[s] = a.first_edge(s);
  const auto untraversed = [&](State s) {
    EdgeId& e = cursor[s];
    const EdgeId end = a.first_edge(s + 1);
    while (e < end && !todo.test(e)) ++e;
    return e < end;
  };

  Word period;
  State at = entry;
  const auto take = [&](EdgeId e) {
    period.push_back(a.edge(e).symbol);
    if (todo.test(e)) {
      todo.reset(e);
      --left;
    }
    at = a.edge(e).target;
  };
  while (left > 0) {
    if (untraversed(at)) {
      take(cursor[at]);
      continue;
    }
    const State to = bfs.run({&at, 1}, &fair, untraversed);
    if (to == kNoState) return {};  // cannot happen: `fair` is an SCC
    for (const EdgeId e : bfs.path_to(to)) take(e);
  }
  if (at != entry) {
    (void)bfs.run({&at, 1}, &fair, [entry](State s) { return s == entry; });
    for (const EdgeId e : bfs.path_to(entry)) take(e);
  }
  return period;
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
  Bfs bfs(a);
  (void)bfs.run(a.initial(), nullptr, [](State) { return false; });
  DynBitset alive = a.edge_set();
  for (const State s : bfs.order()) {
    for (EdgeId e = a.first_edge(s); e < a.first_edge(s + 1); ++e) {
      alive.set(e);
    }
  }

  const auto fair = fair_scc_edges(a, alive, refine, budget);
  if (!fair) return std::nullopt;

  // Enter the SCC at its state nearest to an initial state.
  const DynBitset scc_states = states_of_edges(a, *fair);
  const auto entry_it =
      std::find_if(bfs.order().begin(), bfs.order().end(),
                   [&](State s) { return scc_states.test(s); });
  if (entry_it == bfs.order().end()) return std::nullopt;  // cannot happen
  const State entry = *entry_it;
  Word prefix;
  for (const EdgeId e : bfs.path_to(entry)) prefix.push_back(a.edge(e).symbol);

  Word period = covering_walk(a, *fair, entry, bfs);
  if (period.empty()) return std::nullopt;  // cannot happen: SCC has edges
  return Lasso{std::move(prefix), std::move(period)};
}

}  // namespace rlv
