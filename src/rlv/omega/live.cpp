#include "rlv/omega/live.hpp"

#include <algorithm>
#include <vector>

#include "rlv/lang/ops.hpp"
#include "rlv/util/scc.hpp"

namespace rlv {

namespace {

/// Live nodes of a CSR graph in one Tarjan pass. A component is live when it
/// is non-trivial and `accepting(members)` holds, or when it has an edge into
/// a live component; components close in reverse topological order, so the
/// second clause reads only final answers.
template <class FirstEdge, class Target, class Accepting>
DynBitset live_nodes(std::uint32_t n, const FirstEdge& first_edge,
                     const Target& target, const Accepting& accepting,
                     Budget* budget) {
  DynBitset live(n);
  (void)tarjan_scc(
      n, first_edge, target, nullptr,
      [&](std::uint32_t id, std::span<const std::uint32_t> members,
          const SccResult& scc) {
        budget_tick(budget);
        bool is_live = scc.nontrivial[id] && accepting(members);
        for (std::size_t i = 0; i < members.size() && !is_live; ++i) {
          const std::uint32_t m = members[i];
          for (std::uint32_t e = first_edge(m); e < first_edge(m + 1); ++e) {
            if (live.test(target(e))) {
              is_live = true;
              break;
            }
          }
        }
        if (is_live) {
          for (const std::uint32_t m : members) live.set(m);
        }
      });
  return live;
}

}  // namespace

DynBitset live_states(const Buchi& a) {
  const Nfa& nfa = a.structure();
  const std::span<const Transition> edges = nfa.edges();
  return live_nodes(
      static_cast<std::uint32_t>(nfa.num_states()),
      [&](State s) { return nfa.first_edge(s); },
      [&](std::uint32_t e) { return edges[e].target; },
      [&](std::span<const State> members) {
        return std::any_of(members.begin(), members.end(),
                           [&](State s) { return a.is_accepting(s); });
      },
      nullptr);
}

Buchi trim_omega(const Buchi& a) {
  DynBitset keep = a.structure().reachable();
  keep &= live_states(a);

  Buchi result(a.alphabet());
  std::vector<State> remap(a.num_states(), kNoState);
  for (State s = 0; s < a.num_states(); ++s) {
    if (keep.test(s)) remap[s] = result.add_state(a.is_accepting(s));
  }
  for (State s = 0; s < a.num_states(); ++s) {
    if (!keep.test(s)) continue;
    for (const auto& t : a.out(s)) {
      if (keep.test(t.target)) {
        result.add_transition(remap[s], t.symbol, remap[t.target]);
      }
    }
  }
  for (const State s : a.initial()) {
    if (keep.test(s)) result.set_initial(remap[s]);
  }
  return result;
}

Nfa prefix_nfa(const Buchi& a) {
  Nfa result = trim_omega(a).structure();
  for (State s = 0; s < result.num_states(); ++s) {
    result.set_accepting(s, true);
  }
  return result;
}

Nfa prefix_of_intersection(const Buchi& a, const Buchi& b, Budget* budget) {
  const PairProduct product = [&] {
    StageScope scope(budget, Stage::kProduct);
    return pair_product(a.structure(), b.structure(), budget);
  }();
  const std::vector<std::uint32_t>& edge_off = product.edge_off;
  const std::vector<Transition>& edges = product.edges;
  const auto n = static_cast<State>(product.size());

  StageScope scope(budget, Stage::kPreTrim);
  const DynBitset live = live_nodes(
      n, [&](State s) { return edge_off[s]; },
      [&](std::uint32_t e) { return edges[e].target; },
      [&](std::span<const State> members) {
        bool meets_a = false;
        bool meets_b = false;
        for (const State m : members) {
          meets_a = meets_a || a.is_accepting(product.left(m));
          meets_b = meets_b || b.is_accepting(product.right(m));
        }
        return meets_a && meets_b;
      },
      budget);

  Nfa result(a.alphabet());
  std::vector<State> remap(n, kNoState);
  for (State s = 0; s < n; ++s) {
    if (live.test(s)) remap[s] = result.add_state(true);
  }
  for (const State s : product.initial) {
    if (live.test(s)) result.set_initial(remap[s]);
  }
  for (State s = 0; s < n; ++s) {
    if (!live.test(s)) continue;
    for (std::uint32_t e = edge_off[s]; e < edge_off[s + 1]; ++e) {
      const Transition& t = edges[e];
      if (live.test(t.target)) {
        result.add_transition(remap[s], t.symbol, remap[t.target]);
      }
    }
  }
  return result;
}

bool all_accepting(const Buchi& a) {
  for (State s = 0; s < a.num_states(); ++s) {
    if (!a.is_accepting(s)) return false;
  }
  return true;
}

bool omega_empty(const Buchi& a) {
  const DynBitset live = live_states(a);
  for (const State s : a.initial()) {
    // Initial states must also be reachable-from-initial, trivially true.
    if (live.test(s)) return false;
  }
  return true;
}

}  // namespace rlv
