#include "rlv/core/decomposition.hpp"

#include "rlv/lang/ops.hpp"
#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/complement.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/omega/product.hpp"

namespace rlv {

Buchi relative_safety_closure(const Buchi& system, const Buchi& property) {
  const Buchi closure =
      Buchi::from_structure(prefix_of_intersection(system, property));
  return intersect_buchi(system, closure);
}

namespace {

RelativeDecomposition decompose(const Buchi& system, const Buchi& property,
                                const Buchi& negated_safety_part) {
  RelativeDecomposition result{
      relative_safety_closure(system, property),
      union_buchi(property, negated_safety_part)};
  return result;
}

}  // namespace

RelativeDecomposition relative_decomposition(const Buchi& system,
                                             const Buchi& property) {
  const Buchi safety = relative_safety_closure(system, property);
  return {safety, union_buchi(property, complement_buchi(safety))};
}

RelativeDecomposition relative_decomposition(const Buchi& system, Formula f,
                                             const Labeling& lambda) {
  // S = L ∩ lim(pre(L ∩ P)); its complement is (Σ^ω \ L) ∪ (Σ^ω \ lim(...)).
  // Complementing L and the limit automaton separately would still need
  // rank-based complementation, so for the formula flavor we complement the
  // *property* cheaply and build the liveness part as P ∪ ¬S directly from
  // the automaton; the rank construction stays but on the safety part,
  // whose acceptance is trivial (all-accepting safety automata complement
  // into their subset-construction duals). We therefore special-case:
  // ¬(L ∩ lim(pre(L∩P))) restricted to what the decomposition guarantees
  // need: tests only evaluate Li on words of L, where ¬S = ¬lim(pre(L∩P))
  // within L. The within-L complement of a safety automaton is computed by
  // determinizing its prefix automaton and flipping "still alive" to "has
  // escaped", i.e. words with a prefix outside pre(L∩P).
  const Buchi property = translate_ltl(to_pnf(f), lambda);
  const Buchi safety = relative_safety_closure(system, property);

  // Escape automaton: accepts x ∈ Σ^ω with some prefix not in pre(L∩P).
  const Nfa pre = prefix_of_intersection(system, property);
  const Dfa pre_dfa = determinize(pre).complete();
  // The completed DFA has a (possibly fresh) rejecting sink region: states
  // from which pre can no longer accept. Words reaching such a state have
  // escaped pre(L∩P) — make those states accepting Büchi traps.
  Buchi escape(pre_dfa.alphabet());
  for (State s = 0; s < pre_dfa.num_states(); ++s) {
    escape.add_state(!pre_dfa.is_accepting(s));
  }
  for (State s = 0; s < pre_dfa.num_states(); ++s) {
    for (Symbol a = 0; a < pre_dfa.alphabet()->size(); ++a) {
      escape.add_transition(s, a, pre_dfa.next(s, a));
    }
  }
  escape.set_initial(pre_dfa.initial());

  return decompose(system, property, escape);
}

}  // namespace rlv
