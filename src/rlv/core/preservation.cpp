#include "rlv/core/preservation.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "rlv/core/relative.hpp"
#include "rlv/hom/image.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/transform.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/util/scc.hpp"

namespace rlv {

Labeling hom_labeling(const Homomorphism& h) {
  std::vector<std::vector<std::string>> labels;
  labels.reserve(h.source()->size());
  for (Symbol a = 0; a < h.source()->size(); ++a) {
    if (const auto mapped = h.apply(a)) {
      const std::string& name = h.target()->name(*mapped);
      assert(name != kEpsilonAtom && "target name collides with ε-atom");
      labels.push_back({name});
    } else {
      labels.push_back({std::string(kEpsilonAtom)});
    }
  }
  return Labeling(h.source(), std::move(labels));
}

bool has_maximal_words(const Nfa& nfa) {
  // w maximal ⟺ in the determinized trim automaton, the state reached by w
  // has no successors. (Trim: all states useful; determinize: per-word.)
  const Dfa dfa = determinize(trim(nfa));
  const std::size_t sigma = nfa.alphabet()->size();
  for (State s = 0; s < dfa.num_states(); ++s) {
    bool has_successor = false;
    for (Symbol a = 0; a < sigma; ++a) {
      if (dfa.next(s, a) != kNoState) has_successor = true;
    }
    if (!has_successor) return true;
  }
  return false;
}

bool hides_divergence(const Nfa& system, const Homomorphism& h) {
  const Nfa trimmed = trim(system);
  // Hidden-only subgraph; any cycle in it (non-trivial SCC or hidden
  // self-loop) witnesses an infinite all-ε continuation.
  const std::span<const Transition> edges = trimmed.edges();
  DynBitset hidden(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (h.hides(edges[e].symbol)) hidden.set(e);
  }
  const SccResult scc = tarjan_scc(
      static_cast<std::uint32_t>(trimmed.num_states()),
      [&](State s) { return trimmed.first_edge(s); },
      [&](std::uint32_t e) { return edges[e].target; }, &hidden);
  return std::find(scc.nontrivial.begin(), scc.nontrivial.end(), true) !=
         scc.nontrivial.end();
}

bool abstract_relative_liveness(const Nfa& system, const Homomorphism& h,
                                Formula eta) {
  const Nfa abstract = reduced_image_nfa(system, h);
  if (abstract.num_states() == 0) return true;  // empty behavior: vacuous
  const Buchi abstract_limit = limit_of_prefix_closed(abstract);
  return relative_liveness(abstract_limit, eta,
                           Labeling::canonical(h.target()))
      .holds;
}

bool concrete_relative_liveness(const Nfa& system, const Homomorphism& h,
                                Formula eta) {
  const Buchi concrete_limit = limit_of_prefix_closed(system);
  const Formula rbar = transform_rbar(to_pnf(eta));
  return relative_liveness(concrete_limit, rbar, hom_labeling(h)).holds;
}

AbstractionVerdict verify_via_abstraction(const Nfa& system,
                                          const Homomorphism& h, Formula eta) {
  AbstractionVerdict verdict;
  verdict.transformed = transform_rbar(to_pnf(eta));
  verdict.concrete_states = trim(system).num_states();

  const Nfa abstract = reduced_image_nfa(system, h);
  verdict.abstract_states = abstract.num_states();
  verdict.image_has_maximal_words = has_maximal_words(abstract);

  if (abstract.num_states() == 0) {
    // Empty behavior set: every property is vacuously relative liveness.
    verdict.abstract_holds = true;
    verdict.simplicity.simple = true;
    verdict.simplicity_checked = true;
    verdict.concrete_holds = true;
    return verdict;
  }

  const Buchi abstract_limit = limit_of_prefix_closed(abstract);
  verdict.abstract_holds =
      relative_liveness(abstract_limit, to_pnf(eta),
                        Labeling::canonical(h.target()))
          .holds;

  verdict.hidden_divergence = hides_divergence(system, h);

  if (!verdict.abstract_holds) {
    // Theorem 8.3 (contrapositive): the concrete property fails too, no
    // simplicity needed — provided h(L) has no maximal words AND the
    // system cannot diverge on hidden letters (an all-ε tail satisfies
    // the weak-release clauses of R̄(η), so a divergent continuation can
    // rescue the concrete check that the abstraction refutes). Since
    // simplicity gates nothing here, its decision procedure (a subset
    // product over the image DFA) is skipped entirely.
    if (!verdict.image_has_maximal_words && !verdict.hidden_divergence) {
      verdict.concrete_holds = false;
    }
    return verdict;
  }

  verdict.simplicity = check_simplicity(system, h);
  verdict.simplicity_checked = true;
  if (verdict.simplicity.simple && !verdict.image_has_maximal_words) {
    // Theorem 8.2: transfer the positive verdict (sound even under hidden
    // divergence — extra concrete behaviors only enlarge lim(L) ∩ R̄(η),
    // and pre(lim(L)) is the same prefix language either way).
    verdict.concrete_holds = true;
  }
  return verdict;
}

}  // namespace rlv
