#include "rlv/fair/fair_check.hpp"

#include <utility>
#include <vector>

#include "rlv/lang/ops.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/streett.hpp"

namespace rlv {

namespace {

/// The system × ¬P pair product, built under Stage::kProduct, with its
/// StreettAutomaton. The automaton takes the product's edge table (its
/// initial, edge_off and edges arrays are moved out), so Streett edge e is
/// product edge e: it projects to system edge pairs.left_edge[e], and its ¬P
/// component enters pairs.right(streett.edge(e).target).
struct Product {
  PairProduct pairs;
  StreettAutomaton streett;
};

Product build_product(const Buchi& system, const Buchi& negated,
                      Budget* budget) {
  StageScope scope(budget, Stage::kProduct);
  PairProduct pairs =
      pair_product(system.structure(), negated.structure(), budget);
  StreettAutomaton streett(system.alphabet(), std::move(pairs.initial),
                           std::move(pairs.edge_off), std::move(pairs.edges));
  return {std::move(pairs), std::move(streett)};
}

}  // namespace

FairCheckResult check_fair_satisfaction_negated(const Buchi& system,
                                                const Buchi& negated,
                                                FairnessKind kind,
                                                Budget* budget) {
  const Product product = build_product(system, negated, budget);
  const PairProduct& pairs = product.pairs;
  const StreettAutomaton& streett = product.streett;
  const Nfa& sys = system.structure();

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
  std::vector<std::uint8_t> taken(sys.num_transitions(), 0);
  std::vector<State> touched_list;
  std::vector<std::uint32_t> taken_list;
  const auto refine = [&](const DynBitset& scc) {
    bool accepting = false;
    scc.for_each([&](std::size_t pe) {
      const State s = pairs.left(streett.edge_source(static_cast<EdgeId>(pe)));
      if (!touched[s]) {
        touched[s] = 1;
        touched_list.push_back(s);
      }
      const std::uint32_t system_edge = pairs.left_edge[pe];
      if (!taken[system_edge]) {
        taken[system_edge] = 1;
        taken_list.push_back(system_edge);
      }
      accepting = accepting ||
                  negated.is_accepting(pairs.right(
                      streett.edge(static_cast<EdgeId>(pe)).target));
    });
    const auto starved = [&](State s) {
      for (std::uint32_t e = sys.first_edge(s); e < sys.first_edge(s + 1);
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
        const State s =
            pairs.left(streett.edge_source(static_cast<EdgeId>(pe)));
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
  Product product = build_product(system, negated, nullptr);
  const PairProduct& pairs = product.pairs;
  StreettAutomaton& streett = product.streett;

  // Group *system* edges by prefix, then lift:
  //   E_P = product edges leaving states whose system component can take a
  //         P-edge (the process is enabled there),
  //   F_P = product edges projecting to a P-edge.
  const std::size_t k = process_prefixes.size();
  std::vector<std::vector<bool>> sys_edge_in_group(
      k, std::vector<bool>(system.structure().num_transitions(), false));
  std::vector<std::vector<bool>> sys_state_enables(
      k, std::vector<bool>(system.num_states(), false));
  std::size_t flat = 0;  // system edges in first_edge numbering
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

  // A pair with an empty goal still counts: where ¬P never lets an enabled
  // process act, the fair runs are those that leave it enabled finitely
  // often. Only a pair whose process is never enabled is vacuous.
  for (std::size_t g = 0; g < k; ++g) {
    StreettPair pair{streett.edge_set(), streett.edge_set()};
    for (EdgeId pe = 0; pe < streett.num_edges(); ++pe) {
      const State src = streett.edge_source(pe);
      if (sys_state_enables[g][pairs.left(src)]) {
        pair.antecedent.set(pe);
      }
      if (sys_edge_in_group[g][pairs.left_edge[pe]]) {
        pair.goal.set(pe);
      }
    }
    if (pair.antecedent.any()) streett.add_pair(std::move(pair));
  }

  // Büchi acceptance of ¬P as a Streett pair.
  {
    DynBitset all = streett.edge_set();
    DynBitset acc = streett.edge_set();
    for (EdgeId pe = 0; pe < streett.num_edges(); ++pe) {
      all.set(pe);
      if (negated.is_accepting(pairs.right(streett.edge(pe).target))) {
        acc.set(pe);
      }
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
