#include "rlv/fair/fair_check.hpp"

#include <algorithm>
#include <string>
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

/// Fairness as groups of system edges. A group is enabled at the system
/// states that have one of its edges, and acts when the run takes one. A run
/// is strongly fair when every group enabled infinitely often acts
/// infinitely often. Transition fairness has one group per system edge,
/// read off the system's own edge table; process fairness has one group per
/// process, stored as two CSR lists.
struct TransitionGroups {
  const Nfa& sys;

  [[nodiscard]] std::size_t size() const { return sys.num_transitions(); }
  template <class F>
  void for_each_of_edge(std::uint32_t e, F&& f) const {
    f(e);
  }
  template <class P>
  [[nodiscard]] bool any_enabled(State s, P&& p) const {
    for (std::uint32_t e = sys.first_edge(s); e < sys.first_edge(s + 1); ++e) {
      if (p(e)) return true;
    }
    return false;
  }
};

struct ProcessGroups {
  std::size_t count = 0;
  std::vector<std::uint32_t> member_off{0};   // per system edge, plus one
  std::vector<std::uint32_t> members;         // the groups of each edge
  std::vector<std::uint32_t> enabled_off{0};  // per system state, plus one
  std::vector<std::uint32_t> enabled;         // the groups enabled there

  [[nodiscard]] std::size_t size() const { return count; }
  template <class F>
  void for_each_of_edge(std::uint32_t e, F&& f) const {
    for (std::uint32_t i = member_off[e]; i < member_off[e + 1]; ++i) {
      f(members[i]);
    }
  }
  template <class P>
  [[nodiscard]] bool any_enabled(State s, P&& p) const {
    for (std::uint32_t i = enabled_off[s]; i < enabled_off[s + 1]; ++i) {
      if (p(enabled[i])) return true;
    }
    return false;
  }
};

/// One process per prefix: a system edge belongs to every process whose
/// prefix starts its action name, so an edge may belong to several.
ProcessGroups group_by_prefix(const Nfa& sys,
                              const std::vector<std::string>& prefixes) {
  ProcessGroups groups;
  groups.count = prefixes.size();
  for (State s = 0; s < sys.num_states(); ++s) {
    const std::size_t first = groups.enabled.size();
    for (std::uint32_t e = sys.first_edge(s); e < sys.first_edge(s + 1); ++e) {
      const std::string& action = sys.alphabet()->name(sys.edges()[e].symbol);
      for (std::uint32_t g = 0; g < prefixes.size(); ++g) {
        if (!action.starts_with(prefixes[g])) continue;
        groups.members.push_back(g);
        if (std::find(groups.enabled.begin() + first, groups.enabled.end(),
                      g) == groups.enabled.end()) {
          groups.enabled.push_back(g);
        }
      }
      groups.member_off.push_back(
          static_cast<std::uint32_t>(groups.members.size()));
    }
    groups.enabled_off.push_back(
        static_cast<std::uint32_t>(groups.enabled.size()));
  }
  return groups;
}

/// The Streett search over the product with the fairness groups lifted
/// through it, plus the Büchi acceptance of ¬P. As Streett pairs that is
/// one pair per group g,
///   strong:  E = product edges whose source projects to a state enabling g,
///            F = product edges projecting to an edge of g;
///   weak (transition groups, g = {e} with e leaving s):
///            E = all product edges,
///            F = (product edges whose source projects to a state ≠ s)
///                ∪ (product edges projecting to e);
/// and the pair (all edges, edges entering ¬P-accepting states). Stored as
/// bitsets these pairs would take groups × product edges bits, so the SCC
/// search gets them as a refiner instead: inside an SCC, g's pair is
/// violated exactly when the SCC visits a state enabling g ("touched") but
/// takes no edge of g ("starved").
template <class Groups>
FairCheckResult search(const Buchi& system, const Buchi& negated,
                       FairnessKind kind, const Groups& groups,
                       Budget* budget) {
  const Product product = build_product(system, negated, budget);
  const PairProduct& pairs = product.pairs;
  const StreettAutomaton& streett = product.streett;
  std::vector<std::uint8_t> touched(system.num_states(), 0);
  std::vector<std::uint8_t> taken(groups.size(), 0);
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
      groups.for_each_of_edge(pairs.left_edge[pe], [&](std::uint32_t g) {
        if (!taken[g]) {
          taken[g] = 1;
          taken_list.push_back(g);
        }
      });
      accepting = accepting ||
                  negated.is_accepting(pairs.right(
                      streett.edge(static_cast<EdgeId>(pe)).target));
    });
    const auto starved = [&](State s) {
      return groups.any_enabled(s, [&](std::uint32_t g) { return !taken[g]; });
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
    for (const std::uint32_t g : taken_list) taken[g] = 0;
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

}  // namespace

FairCheckResult check_fair_satisfaction_negated(const Buchi& system,
                                                const Buchi& negated,
                                                FairnessKind kind,
                                                Budget* budget) {
  return search(system, negated, kind, TransitionGroups{system.structure()},
                budget);
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
  return search(system, translate_ltl_negated(f, lambda),
                FairnessKind::kStrongTransition,
                group_by_prefix(system.structure(), process_prefixes),
                nullptr);
}

}  // namespace rlv
