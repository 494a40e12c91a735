#include "rlv/cert/certificate.hpp"

#include <cstddef>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rlv/ltl/eval.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/lasso.hpp"
#include "rlv/util/scc.hpp"

namespace rlv::cert {

namespace {

Validation ok_checked() {
  Validation v;
  v.valid = true;
  v.checked = true;
  return v;
}

Validation fail(std::string reason) {
  Validation v;
  v.valid = false;
  v.checked = true;
  v.reason = std::move(reason);
  return v;
}

Validation not_checked(std::string note) {
  Validation v;
  v.valid = true;
  v.checked = false;
  v.reason = std::move(note);
  return v;
}

/// States that can reach a node of `targets` in the graph of `structure`
/// (including the targets themselves): one reverse BFS.
DynBitset can_reach(const Nfa& structure, const DynBitset& targets) {
  const std::size_t n = structure.num_states();
  std::vector<std::vector<State>> pred(n);
  for (State s = 0; s < n; ++s) {
    for (const Transition& t : structure.out(s)) pred[t.target].push_back(s);
  }
  DynBitset reached(n);
  std::vector<State> work;
  targets.for_each([&](std::size_t s) {
    reached.set(s);
    work.push_back(static_cast<State>(s));
  });
  while (!work.empty()) {
    const State s = work.back();
    work.pop_back();
    for (const State p : pred[s]) {
      if (!reached.test(p)) {
        reached.set(p);
        work.push_back(p);
      }
    }
  }
  return reached;
}

/// The SCCs of `structure`'s graph, read from its CSR edges.
SccResult sccs(const Nfa& structure) {
  const std::span<const Transition> edges = structure.edges();
  return tarjan_scc(
      static_cast<std::uint32_t>(structure.num_states()),
      [&](State s) { return structure.first_edge(s); },
      [&](std::uint32_t e) { return edges[e].target; });
}

/// Checks that every finite prefix of u·v^ω lies in pre(L_ω(system) ∩ P),
/// by deterministic subset simulation over the explicit product restricted
/// to its live states. The restriction is exact: a non-live product state
/// can never reach a live one (if it could, it could reach an accepting
/// SCC and would be live itself), so pruning dead states never loses a
/// future extension. The boundary subsets after each whole v block form a
/// deterministic sequence over a finite domain; once one repeats, all
/// later prefixes rewalk checked ground.
Validation check_limit_membership(const Lasso& lasso, const Buchi& system,
                                  const Buchi& property) {
  const GenProduct p = explicit_product({&system, &property});
  const DynBitset live = gen_live(p);

  DynBitset cur(p.structure.num_states());
  for (const State s : p.structure.initial()) {
    if (live.test(s)) cur.set(s);
  }
  if (cur.none()) {
    return fail("the empty prefix is not extendable into L_omega ∩ P");
  }
  const auto advance = [&](Symbol a) {
    cur = p.structure.step(cur, a);
    cur &= live;
    return cur.any();
  };
  for (std::size_t i = 0; i < lasso.prefix.size(); ++i) {
    if (!advance(lasso.prefix[i])) {
      return fail("prefix u[0.." + std::to_string(i) +
                  "] is not extendable into L_omega ∩ P");
    }
  }
  std::set<DynBitset> seen;
  constexpr std::size_t kMaxBlocks = std::size_t{1} << 16;
  while (seen.insert(cur).second) {
    if (seen.size() > kMaxBlocks) {
      return fail("limit membership did not converge within " +
                  std::to_string(kMaxBlocks) + " period blocks");
    }
    for (std::size_t i = 0; i < lasso.period.size(); ++i) {
      if (!advance(lasso.period[i])) {
        return fail("a prefix ending inside period position " +
                    std::to_string(i) +
                    " is not extendable into L_omega ∩ P");
      }
    }
  }
  return ok_checked();
}

Validation check_lasso_shape(const Lasso& lasso) {
  if (lasso.period.empty()) return fail("witness lasso has an empty period");
  return ok_checked();
}

}  // namespace

GenProduct explicit_product(const std::vector<const Buchi*>& operands,
                            std::size_t max_states) {
  if (operands.empty()) {
    throw std::invalid_argument("explicit_product: empty operand list");
  }
  const AlphabetRef& sigma = operands.front()->alphabet();
  for (const Buchi* op : operands) {
    require_same_alphabet(sigma, op->alphabet(), "explicit_product");
  }
  const std::size_t k = operands.size();

  GenProduct p(sigma);
  std::map<std::vector<State>, State> index;
  std::vector<std::vector<State>> tuples;
  std::vector<State> work;
  const auto intern = [&](const std::vector<State>& tuple) {
    auto [it, fresh] = index.try_emplace(tuple, kNoState);
    if (fresh) {
      if (tuples.size() >= max_states) {
        throw std::runtime_error("explicit_product: state cap exceeded");
      }
      it->second = p.structure.add_state(false);
      tuples.push_back(tuple);
      work.push_back(it->second);
    }
    return it->second;
  };

  // Cartesian product of per-operand choice lists, invoking `fn` per tuple.
  const auto for_each_tuple = [&](const std::vector<std::vector<State>>& lists,
                                  auto&& fn) {
    for (const std::vector<State>& l : lists) {
      if (l.empty()) return;
    }
    std::vector<std::size_t> pick(k, 0);
    std::vector<State> tuple(k);
    while (true) {
      for (std::size_t i = 0; i < k; ++i) tuple[i] = lists[i][pick[i]];
      fn(tuple);
      std::size_t i = 0;
      while (i < k && ++pick[i] == lists[i].size()) pick[i++] = 0;
      if (i == k) return;
    }
  };

  std::vector<std::vector<State>> lists(k);
  for (std::size_t i = 0; i < k; ++i) lists[i] = operands[i]->initial();
  for_each_tuple(lists, [&](const std::vector<State>& tuple) {
    p.structure.set_initial(intern(tuple));
  });

  while (!work.empty()) {
    const State s = work.back();
    work.pop_back();
    const std::vector<State> tuple = tuples[s];
    for (Symbol a = 0; a < sigma->size(); ++a) {
      for (std::size_t i = 0; i < k; ++i) {
        lists[i] = operands[i]->structure().successors(tuple[i], a);
      }
      for_each_tuple(lists, [&](const std::vector<State>& next) {
        p.structure.add_transition(s, a, intern(next));
      });
    }
  }

  p.sets.assign(k, DynBitset(p.structure.num_states()));
  for (State s = 0; s < p.structure.num_states(); ++s) {
    for (std::size_t i = 0; i < k; ++i) {
      if (operands[i]->is_accepting(tuples[s][i])) p.sets[i].set(s);
    }
  }
  return p;
}

DynBitset buchi_live(const Buchi& a) {
  const std::size_t n = a.num_states();
  const SccResult scc = sccs(a.structure());
  std::vector<bool> accepting_component(scc.count, false);
  for (State s = 0; s < n; ++s) {
    if (a.is_accepting(s) && scc.nontrivial[scc.component[s]]) {
      accepting_component[scc.component[s]] = true;
    }
  }
  DynBitset targets(n);
  for (State s = 0; s < n; ++s) {
    if (accepting_component[scc.component[s]]) targets.set(s);
  }
  return can_reach(a.structure(), targets);
}

DynBitset gen_live(const GenProduct& p) {
  const std::size_t n = p.structure.num_states();
  const std::size_t k = p.sets.size();
  const SccResult scc = sccs(p.structure);
  // A component accepts when it is nontrivial and intersects every set.
  std::vector<std::vector<bool>> covers(
      k, std::vector<bool>(scc.count, false));
  for (State s = 0; s < n; ++s) {
    for (std::size_t i = 0; i < k; ++i) {
      if (p.sets[i].test(s)) covers[i][scc.component[s]] = true;
    }
  }
  DynBitset targets(n);
  for (State s = 0; s < n; ++s) {
    const std::uint32_t c = scc.component[s];
    if (!scc.nontrivial[c]) continue;
    bool all = true;
    for (std::size_t i = 0; i < k && all; ++i) all = covers[i][c];
    if (all) targets.set(s);
  }
  return can_reach(p.structure, targets);
}

bool gen_nonempty(const GenProduct& p) {
  const DynBitset live = gen_live(p);
  for (const State s : p.structure.initial()) {
    if (live.test(s)) return true;
  }
  return false;
}

Validation check_doomed_prefix(const Word& w, const Buchi& system,
                               const Buchi& property) {
  // Leg 1 (w ∈ pre(L_ω)): some run of w in the system ends in a state from
  // which an accepting run exists.
  const DynBitset after = system.structure().run(w);
  if (!after.intersects(buchi_live(system))) {
    return fail("prefix is not in pre(L_omega(system))");
  }
  // Leg 2 (no extension into L_ω ∩ P): no run of w in the explicit product
  // ends in a live product state.
  const GenProduct p = explicit_product({&system, &property});
  if (p.structure.run(w).intersects(gen_live(p))) {
    return fail("prefix extends into L_omega(system) ∩ P");
  }
  return ok_checked();
}

Validation check_safety_lasso(const Lasso& lasso, const Buchi& system,
                              const Buchi& property) {
  if (Validation v = check_lasso_shape(lasso); !v.valid) return v;
  if (!accepts_lasso(system, lasso)) {
    return fail("lasso is not in L_omega(system)");
  }
  if (accepts_lasso(property, lasso)) {
    return fail("lasso satisfies the property (not a ¬P witness)");
  }
  return check_limit_membership(lasso, system, property);
}

Validation check_safety_lasso(const Lasso& lasso, const Buchi& system,
                              const Buchi& property, Formula f,
                              const Labeling& lambda) {
  if (Validation v = check_lasso_shape(lasso); !v.valid) return v;
  if (!accepts_lasso(system, lasso)) {
    return fail("lasso is not in L_omega(system)");
  }
  // Ground-truth LTL semantics, bypassing the translation.
  if (eval_ltl(f, lasso.prefix, lasso.period, lambda)) {
    return fail("lasso satisfies the formula (not a ¬P witness)");
  }
  return check_limit_membership(lasso, system, property);
}

Validation check_violation_lasso(const Lasso& lasso, const Buchi& system,
                                 const Buchi& property) {
  if (Validation v = check_lasso_shape(lasso); !v.valid) return v;
  if (!accepts_lasso(system, lasso)) {
    return fail("lasso is not in L_omega(system)");
  }
  if (accepts_lasso(property, lasso)) {
    return fail("lasso satisfies the property (not a violation)");
  }
  return ok_checked();
}

Validation check_violation_lasso(const Lasso& lasso, const Buchi& system,
                                 Formula f, const Labeling& lambda) {
  if (Validation v = check_lasso_shape(lasso); !v.valid) return v;
  if (!accepts_lasso(system, lasso)) {
    return fail("lasso is not in L_omega(system)");
  }
  if (eval_ltl(f, lasso.prefix, lasso.period, lambda)) {
    return fail("lasso satisfies the formula (not a violation)");
  }
  return ok_checked();
}

Validation validate(CheckKind kind, const CheckResult& result,
                    const Buchi& behaviors, const Property& property) {
  if (result.holds) return not_checked("positive verdict carries no witness");
  // P as an automaton: the caller's, or else f's translation.
  std::optional<Buchi> translated;
  const auto automaton = [&]() -> const Buchi& {
    if (property.automaton) return *property.automaton;
    return translated.emplace(
        translate_ltl(*property.formula, *property.lambda));
  };
  if (kind == CheckKind::kRelativeLiveness) {
    if (!result.violating_prefix) {
      return fail("negative verdict without a violating prefix");
    }
    return check_doomed_prefix(*result.violating_prefix, behaviors,
                               automaton());
  }
  if (!result.counterexample) {
    return fail("negative verdict without a counterexample lasso");
  }
  const Lasso& lasso = *result.counterexample;
  const std::optional<Formula>& f = property.formula;
  if (kind == CheckKind::kRelativeSafety) {
    return f ? check_safety_lasso(lasso, behaviors, automaton(), *f,
                                  *property.lambda)
             : check_safety_lasso(lasso, behaviors, automaton());
  }
  // Satisfaction and the fair kinds.
  return f ? check_violation_lasso(lasso, behaviors, *f, *property.lambda)
           : check_violation_lasso(lasso, behaviors, automaton());
}

}  // namespace rlv::cert
