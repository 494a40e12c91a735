#include "rlv/fair/fair_check.hpp"

#include <cassert>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rlv/ltl/translate.hpp"
#include "rlv/omega/streett.hpp"
#include "rlv/util/hash.hpp"

namespace rlv {

namespace {

struct EdgeInfo {
  std::uint32_t system_edge;    // flat id of the projected system edge
  bool neg_accepting_target;    // ¬P component enters an accepting state
};

/// Product of the system structure with the ¬P automaton, remembering for
/// every product edge which system edge it projects to and whether its
/// ¬P-target is accepting. `edge_info[s][i]` describes the i-th out-edge of
/// product state s, matching StreettAutomaton's flat edge numbering.
struct FairProduct {
  Nfa structure;
  std::vector<std::uint32_t> system_state;        // per product state
  std::vector<std::vector<EdgeInfo>> edge_info;   // per product state
  // Flat ids of the system's own edges: those of system state s are
  // system_edge_offset[s] .. system_edge_offset[s+1].
  std::vector<std::uint32_t> system_edge_offset;
};

FairProduct build_product(const Buchi& system, const Buchi& negated,
                          Budget* budget) {
  require_same_alphabet(system.alphabet(), negated.alphabet(),
                        "fair_check product");
  StageScope scope(budget, Stage::kProduct);
  FairProduct product{Nfa(system.alphabet()), {}, {}, {}};

  std::vector<std::uint32_t>& sys_edge_offset = product.system_edge_offset;
  sys_edge_offset.assign(system.num_states() + 1, 0);
  for (State s = 0; s < system.num_states(); ++s) {
    sys_edge_offset[s + 1] =
        sys_edge_offset[s] + static_cast<std::uint32_t>(system.out(s).size());
  }

  std::unordered_map<std::pair<State, State>, State, PairHash> ids;
  std::vector<std::pair<State, State>> worklist;
  auto intern = [&](State p, State q) -> State {
    auto [it, inserted] = ids.emplace(std::make_pair(p, q), kNoState);
    if (inserted) {
      budget_charge(budget);
      it->second = product.structure.add_state(true);
      product.system_state.push_back(p);
      product.edge_info.emplace_back();
      worklist.emplace_back(p, q);
    }
    return it->second;
  };

  for (const State p : system.initial()) {
    for (const State q : negated.initial()) {
      product.structure.set_initial(intern(p, q));
    }
  }
  while (!worklist.empty()) {
    const auto [p, q] = worklist.back();
    worklist.pop_back();
    const State from = ids.at({p, q});
    for (std::uint32_t i = 0; i < system.out(p).size(); ++i) {
      const Transition& ts = system.out(p)[i];
      budget_tick(budget);
      for (const auto& tn : negated.out(q)) {
        if (ts.symbol != tn.symbol) continue;
        const State to = intern(ts.target, tn.target);
        product.structure.add_transition(from, ts.symbol, to);
        product.edge_info[from].push_back(
            {sys_edge_offset[p] + i, negated.is_accepting(tn.target)});
      }
    }
  }
  return product;
}

}  // namespace

FairCheckResult check_fair_satisfaction_negated(const Buchi& system,
                                                const Buchi& negated,
                                                FairnessKind kind,
                                                Budget* budget) {
  const FairProduct product = build_product(system, negated, budget);
  const StreettAutomaton streett(product.structure);
  const std::vector<std::uint32_t>& sys_edge_offset =
      product.system_edge_offset;

  // Flatten the per-state edge info in StreettAutomaton's edge order.
  std::vector<EdgeInfo> flat_info;
  flat_info.reserve(streett.num_edges());
  for (State s = 0; s < product.structure.num_states(); ++s) {
    assert(product.edge_info[s].size() == product.structure.out(s).size());
    for (const EdgeInfo& info : product.edge_info[s]) {
      flat_info.push_back(info);
    }
  }
  assert(flat_info.size() == streett.num_edges());

  // The fairness pairs lifted through the product (see fairness.hpp for the
  // encodings), one per *system* edge e with source s:
  //   strong:  E = product edges whose source projects to s,
  //            F = product edges projecting to e;
  //   weak:    E = all product edges,
  //            F = (product edges whose source projects to a state ≠ s)
  //                ∪ (product edges projecting to e);
  // plus the Büchi acceptance of ¬P as the pair (all edges, edges entering
  // ¬P-accepting states). Stored as bitsets these pairs would take
  // system edges × product edges bits, so the SCC search gets them as a
  // refiner instead: inside an SCC, a pair is violated exactly when the
  // SCC visits s ("touched") but never takes e ("starved").
  std::vector<std::uint8_t> touched(system.num_states(), 0);
  std::vector<std::uint8_t> taken(sys_edge_offset.back(), 0);
  std::vector<State> touched_list;
  std::vector<std::uint32_t> taken_list;
  const auto refine = [&](const DynBitset& scc) {
    bool accepting = false;
    scc.for_each([&](std::size_t pe) {
      const State s = product.system_state[streett.edge_source(
          static_cast<EdgeId>(pe))];
      if (!touched[s]) {
        touched[s] = 1;
        touched_list.push_back(s);
      }
      const EdgeInfo& info = flat_info[pe];
      if (!taken[info.system_edge]) {
        taken[info.system_edge] = 1;
        taken_list.push_back(info.system_edge);
      }
      accepting = accepting || info.neg_accepting_target;
    });
    const auto starved = [&](State s) {
      for (std::uint32_t e = sys_edge_offset[s]; e < sys_edge_offset[s + 1];
           ++e) {
        if (!taken[e]) return true;
      }
      return false;
    };

    DynBitset removed = streett.edge_set();
    if (!accepting) {
      removed = scc;
    } else if (kind == FairnessKind::kStrongTransition) {
      // Mark starved states 2, then drop every SCC edge leaving one.
      for (const State s : touched_list) {
        if (starved(s)) touched[s] = 2;
      }
      scc.for_each([&](std::size_t pe) {
        const State s = product.system_state[streett.edge_source(
            static_cast<EdgeId>(pe))];
        if (touched[s] == 2) removed.set(pe);
      });
    } else if (touched_list.size() == 1 && starved(touched_list.front())) {
      removed = scc;
    }

    for (const State s : touched_list) touched[s] = 0;
    for (const std::uint32_t e : taken_list) taken[e] = 0;
    touched_list.clear();
    taken_list.clear();
    return removed;
  };

  FairCheckResult result;
  auto lasso = find_fair_lasso(streett, refine, budget);
  result.all_fair_runs_satisfy = !lasso.has_value();
  result.counterexample = std::move(lasso);
  return result;
}

FairCheckResult check_fair_satisfaction(const Buchi& system, Formula f,
                                        const Labeling& lambda,
                                        FairnessKind kind, Budget* budget) {
  return check_fair_satisfaction_negated(
      system, translate_ltl_negated(f, lambda, budget), kind, budget);
}

FairCheckResult check_process_fair_satisfaction(
    const Buchi& system, Formula f, const Labeling& lambda,
    const std::vector<std::string>& process_prefixes) {
  const Buchi negated = translate_ltl_negated(f, lambda);
  const FairProduct product = build_product(system, negated, nullptr);
  StreettAutomaton streett(product.structure);

  std::vector<EdgeInfo> flat_info;
  flat_info.reserve(streett.num_edges());
  for (State s = 0; s < product.structure.num_states(); ++s) {
    for (const EdgeInfo& info : product.edge_info[s]) {
      flat_info.push_back(info);
    }
  }

  // Group *system* edges by prefix, then lift:
  //   E_P = product edges leaving states whose system component can take a
  //         P-edge (the process is enabled there),
  //   F_P = product edges projecting to a P-edge.
  const std::size_t k = process_prefixes.size();
  std::vector<std::vector<bool>> sys_edge_in_group(
      k, std::vector<bool>(0));
  std::vector<std::vector<bool>> sys_state_enables(
      k, std::vector<bool>(system.num_states(), false));
  {
    std::size_t num_sys_edges = 0;
    for (State s = 0; s < system.num_states(); ++s) {
      num_sys_edges += system.out(s).size();
    }
    for (auto& v : sys_edge_in_group) v.assign(num_sys_edges, false);
    std::size_t flat = 0;
    for (State s = 0; s < system.num_states(); ++s) {
      for (const auto& t : system.out(s)) {
        const std::string& action = system.alphabet()->name(t.symbol);
        for (std::size_t g = 0; g < k; ++g) {
          if (action.starts_with(process_prefixes[g])) {
            sys_edge_in_group[g][flat] = true;
            sys_state_enables[g][s] = true;
          }
        }
        ++flat;
      }
    }
  }

  for (std::size_t g = 0; g < k; ++g) {
    StreettPair pair{streett.edge_set(), streett.edge_set()};
    bool any = false;
    for (EdgeId pe = 0; pe < streett.num_edges(); ++pe) {
      const State src = streett.edge_source(pe);
      if (sys_state_enables[g][product.system_state[src]]) {
        pair.antecedent.set(pe);
      }
      if (sys_edge_in_group[g][flat_info[pe].system_edge]) {
        pair.goal.set(pe);
        any = true;
      }
    }
    if (any) streett.add_pair(std::move(pair));
  }

  // Büchi acceptance of ¬P as a Streett pair.
  {
    DynBitset all = streett.edge_set();
    DynBitset acc = streett.edge_set();
    for (EdgeId pe = 0; pe < streett.num_edges(); ++pe) {
      all.set(pe);
      if (flat_info[pe].neg_accepting_target) acc.set(pe);
    }
    streett.add_pair({std::move(all), std::move(acc)});
  }

  FairCheckResult result;
  auto lasso = find_fair_lasso(streett);
  result.all_fair_runs_satisfy = !lasso.has_value();
  result.counterexample = std::move(lasso);
  return result;
}

}  // namespace rlv
