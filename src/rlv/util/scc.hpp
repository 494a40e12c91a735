#pragma once

// Tarjan's strongly-connected-component decomposition: the one SCC pass of
// the project. It reads a graph in CSR form, the layout the automata already
// keep: node v's out-edges are the edge ids first_edge(v) .. first_edge(v+1)
// and edge e ends at node target(e) (Nfa::first_edge with Nfa::edges(),
// PairProduct::edge_off with its edges, a StreettAutomaton's edge table). An
// optional bitset of alive edge ids restricts the pass to a subgraph without
// copying it.
//
// Iterative: automata in this project routinely have DFS stacks too deep for
// recursion. Components are numbered in the order they close, which is
// reverse topological: every edge goes from a component to one with an equal
// or lower id. Each component is handed to on_close(id, members, scc) as it
// closes. At that point every edge leaving its members ends in a closed
// component, so a caller can fold a property of the successors (liveness,
// say) into the same pass.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "rlv/util/bitset.hpp"

namespace rlv {

struct SccResult {
  /// Component id per node; ids are dense in [0, count).
  std::vector<std::uint32_t> component;
  std::uint32_t count = 0;
  /// True when the component has at least one internal (alive) edge, i.e.
  /// it is a non-trivial SCC or a single node with a self-loop.
  std::vector<bool> nontrivial;
};

/// The default on_close: ignores every component.
struct IgnoreScc {
  void operator()(std::uint32_t /*id*/,
                  std::span<const std::uint32_t> /*members*/,
                  const SccResult& /*scc*/) const {}
};

/// Decomposes the graph on nodes 0..n-1 given by `first_edge` (node → first
/// edge id; first_edge(n) is the number of edges) and `target` (edge id →
/// node), keeping only the edges in `alive` when it is given. Calls
/// on_close(id, members, scc) once per component as it closes; `members`
/// are its nodes, and scc.component / scc.nontrivial are final for it and
/// for every component with a lower id.
template <class FirstEdge, class Target, class OnClose = IgnoreScc>
SccResult tarjan_scc(std::uint32_t n, const FirstEdge& first_edge,
                     const Target& target, const DynBitset* alive = nullptr,
                     OnClose&& on_close = {}) {
  constexpr std::uint32_t kUndef = 0xffffffffU;
  SccResult scc;
  // A node is open (on the Tarjan stack) while its index is set and its
  // component is not.
  scc.component.assign(n, kUndef);
  std::vector<std::uint32_t> index(n, kUndef);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<std::uint32_t> stack;
  struct Frame {
    std::uint32_t node;
    std::uint32_t next_edge;
    std::uint32_t end_edge;
  };
  std::vector<Frame> call;
  std::uint32_t next_index = 0;
  const auto is_alive = [&](std::uint32_t e) {
    return alive == nullptr || alive->test(e);
  };
  const auto open = [&](std::uint32_t v) {
    index[v] = low[v] = next_index++;
    stack.push_back(v);
    call.push_back({v, first_edge(v), first_edge(v + 1)});
  };

  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUndef) continue;
    open(root);
    while (!call.empty()) {
      Frame& frame = call.back();
      const std::uint32_t v = frame.node;
      if (frame.next_edge < frame.end_edge) {
        const std::uint32_t e = frame.next_edge++;
        if (!is_alive(e)) continue;
        const std::uint32_t w = target(e);
        if (index[w] == kUndef) {
          open(w);
        } else if (scc.component[w] == kUndef) {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      call.pop_back();
      if (!call.empty()) {
        const std::uint32_t parent = call.back().node;
        low[parent] = std::min(low[parent], low[v]);
      }
      if (low[v] != index[v]) continue;

      // v roots a component: its members sit on the stack above it.
      const std::uint32_t id = scc.count++;
      std::size_t first = stack.size();
      do {
        --first;
        scc.component[stack[first]] = id;
      } while (stack[first] != v);
      const std::span<const std::uint32_t> members(stack.data() + first,
                                                   stack.size() - first);
      const bool internal = std::any_of(
          members.begin(), members.end(), [&](std::uint32_t m) {
            for (std::uint32_t f = first_edge(m); f < first_edge(m + 1); ++f) {
              if (is_alive(f) && scc.component[target(f)] == id) return true;
            }
            return false;
          });
      scc.nontrivial.push_back(internal);
      on_close(id, members, scc);
      stack.resize(first);
    }
  }
  return scc;
}

}  // namespace rlv
