#include "rlv/fair/fairness.hpp"

#include <string>

namespace rlv {

void add_process_fairness_pairs(StreettAutomaton& automaton,
                                const std::vector<DynBitset>& process_edges) {
  for (const DynBitset& group : process_edges) {
    if (group.none()) continue;
    // States where the process has an outgoing edge.
    DynBitset active_states(automaton.num_states());
    group.for_each([&](std::size_t e) {
      active_states.set(automaton.edge_source(static_cast<EdgeId>(e)));
    });
    StreettPair pair{automaton.edge_set(), group};
    active_states.for_each([&](std::size_t s) {
      for (EdgeId e = automaton.first_edge(static_cast<State>(s));
           e < automaton.first_edge(static_cast<State>(s) + 1); ++e) {
        pair.antecedent.set(e);
      }
    });
    automaton.add_pair(std::move(pair));
  }
}

std::vector<DynBitset> group_edges_by_prefix(
    const StreettAutomaton& automaton,
    const std::vector<std::string>& prefixes) {
  std::vector<DynBitset> groups(prefixes.size(), automaton.edge_set());
  for (EdgeId e = 0; e < automaton.num_edges(); ++e) {
    const std::string& action =
        automaton.alphabet()->name(automaton.edge(e).symbol);
    for (std::size_t k = 0; k < prefixes.size(); ++k) {
      if (action.starts_with(prefixes[k])) groups[k].set(e);
    }
  }
  return groups;
}

void add_fairness_pairs(StreettAutomaton& automaton, FairnessKind kind) {
  DynBitset all_edges = automaton.edge_set();
  for (EdgeId e = 0; e < automaton.num_edges(); ++e) all_edges.set(e);

  for (State s = 0; s < automaton.num_states(); ++s) {
    const EdgeId begin = automaton.first_edge(s);
    const EdgeId end = automaton.first_edge(s + 1);
    if (begin == end) continue;

    DynBitset from_s = automaton.edge_set();
    for (EdgeId e = begin; e < end; ++e) from_s.set(e);

    for (EdgeId e = begin; e < end; ++e) {
      StreettPair pair{automaton.edge_set(), automaton.edge_set()};
      switch (kind) {
        case FairnessKind::kStrongTransition:
          pair.antecedent = from_s;
          pair.goal.set(e);
          break;
        case FairnessKind::kWeakTransition:
          pair.antecedent = all_edges;
          pair.goal = all_edges;
          pair.goal -= from_s;
          pair.goal.set(e);
          break;
      }
      automaton.add_pair(std::move(pair));
    }
  }
}

StreettAutomaton make_fairness_streett(const Nfa& structure,
                                       FairnessKind kind) {
  StreettAutomaton automaton(structure);
  add_fairness_pairs(automaton, kind);
  return automaton;
}

}  // namespace rlv
