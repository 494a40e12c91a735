#include "rlv/omega/live.hpp"

#include <algorithm>
#include <vector>

#include "rlv/lang/ops.hpp"
#include "rlv/util/scc.hpp"

namespace rlv {

DynBitset live_states(const Buchi& a) {
  const std::size_t n = a.num_states();
  std::vector<std::vector<std::uint32_t>> succ(n);
  for (State s = 0; s < n; ++s) {
    for (const auto& t : a.out(s)) succ[s].push_back(t.target);
  }
  const SccResult scc = tarjan_scc(succ);

  // An SCC is *accepting* when it is non-trivial (has an internal edge) and
  // contains a Büchi-accepting state.
  std::vector<bool> accepting_scc(scc.count, false);
  for (State s = 0; s < n; ++s) {
    if (a.is_accepting(s) && scc.nontrivial[scc.component[s]]) {
      accepting_scc[scc.component[s]] = true;
    }
  }

  // Live = can reach an accepting SCC: backward reachability.
  std::vector<std::vector<std::uint32_t>> pred(n);
  for (State s = 0; s < n; ++s) {
    for (const auto& t : a.out(s)) pred[t.target].push_back(s);
  }
  DynBitset live(n);
  std::vector<State> work;
  for (State s = 0; s < n; ++s) {
    if (accepting_scc[scc.component[s]]) {
      live.set(s);
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    const State s = work.back();
    work.pop_back();
    for (const std::uint32_t p : pred[s]) {
      if (!live.test(p)) {
        live.set(p);
        work.push_back(p);
      }
    }
  }
  return live;
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
  std::vector<bool> live(n, false);
  StageScope scope(budget, Stage::kPreTrim);
  {
    // Iterative Tarjan over the pair graph (deep products overflow a
    // recursive one). comp[v] stays kUndef while v is open, so "on the
    // Tarjan stack" is index[v] set and comp[v] unset.
    constexpr std::uint32_t kUndef = 0xffffffffU;
    std::vector<std::uint32_t> index(n, kUndef);
    std::vector<std::uint32_t> low(n, 0);
    std::vector<std::uint32_t> comp(n, kUndef);
    std::vector<State> stack;
    struct Frame {
      State node;
      std::uint32_t next_edge;
    };
    std::vector<Frame> call;
    std::uint32_t next_index = 0;
    std::uint32_t num_comps = 0;
    const auto open = [&](State v) {
      index[v] = low[v] = next_index++;
      stack.push_back(v);
      call.push_back({v, edge_off[v]});
    };

    for (State root = 0; root < n; ++root) {
      if (index[root] != kUndef) continue;
      open(root);
      while (!call.empty()) {
        Frame& frame = call.back();
        const State v = frame.node;
        if (frame.next_edge < edge_off[v + 1]) {
          const State w = edges[frame.next_edge++].target;
          if (index[w] == kUndef) {
            open(w);
          } else if (comp[w] == kUndef) {
            low[v] = std::min(low[v], index[w]);
          }
          continue;
        }
        call.pop_back();
        if (!call.empty()) {
          const State parent = call.back().node;
          low[parent] = std::min(low[parent], low[v]);
        }
        if (low[v] != index[v]) continue;

        // v roots an SCC: its members sit on the stack above it. Every edge
        // leaving it ends in an SCC closed earlier, whose liveness is final.
        std::size_t first = stack.size();
        do {
          --first;
          comp[stack[first]] = num_comps;
        } while (stack[first] != v);
        bool internal = false;
        bool into_live = false;
        bool meets_a = false;
        bool meets_b = false;
        for (std::size_t i = first; i < stack.size(); ++i) {
          const State m = stack[i];
          meets_a = meets_a || a.is_accepting(product.left(m));
          meets_b = meets_b || b.is_accepting(product.right(m));
          for (std::uint32_t e = edge_off[m]; e < edge_off[m + 1]; ++e) {
            const State w = edges[e].target;
            if (comp[w] == num_comps) {
              internal = true;
            } else if (live[w]) {
              into_live = true;
            }
          }
        }
        if (into_live || (internal && meets_a && meets_b)) {
          for (std::size_t i = first; i < stack.size(); ++i) live[stack[i]] = true;
        }
        stack.resize(first);
        ++num_comps;
        budget_tick(budget);
      }
    }
  }

  Nfa result(a.alphabet());
  std::vector<State> remap(n, kNoState);
  for (State s = 0; s < n; ++s) {
    if (live[s]) remap[s] = result.add_state(true);
  }
  for (const State s : product.initial) {
    if (live[s]) result.set_initial(remap[s]);
  }
  for (State s = 0; s < n; ++s) {
    if (!live[s]) continue;
    for (std::uint32_t e = edge_off[s]; e < edge_off[s + 1]; ++e) {
      const Transition& t = edges[e];
      if (live[t.target]) {
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
