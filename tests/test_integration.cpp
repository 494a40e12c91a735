// End-to-end integration: for each workload family (Petri-net server,
// synchronized components, token ring, dining philosophers, telephone-style
// systems) run the complete verification workflow — reachability or
// composition, relative liveness/safety, Theorem 4.7 consistency, fair
// synthesis, abstraction with simplicity certification — and check that
// every independent route produces consistent answers.

#include <gtest/gtest.h>

#include "rlv/comp/abstraction.hpp"
#include "rlv/comp/sync.hpp"
#include "rlv/core/fair_synthesis.hpp"
#include "rlv/core/preservation.hpp"
#include "rlv/core/relative.hpp"
#include "rlv/fair/fair_check.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/hom/image.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/patterns.hpp"
#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/simplify.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/omega/reduce.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"

namespace rlv {
namespace {

/// The consistency bundle every (system, property) pair must satisfy.
void check_consistency(const Nfa& system_graph, Formula f) {
  const Buchi behaviors = limit_of_prefix_closed(system_graph);
  const Labeling lambda = Labeling::canonical(system_graph.alphabet());

  const bool sat = satisfies(behaviors, f, lambda).holds;
  const bool rl = relative_liveness(behaviors, f, lambda).holds;
  const bool rs = relative_safety(behaviors, f, lambda).holds;
  // Theorem 4.7.
  EXPECT_EQ(sat, rl && rs) << f.to_string();

  // Both inclusion engines agree.
  EXPECT_EQ(rl, is_included(prefix_nfa(behaviors),
                            prefix_of_intersection(
                                behaviors, translate_ltl(f, lambda)),
                            InclusionAlgorithm::kSubset))
      << f.to_string();

  // Simplification and reduction change nothing semantically.
  const Buchi property = reduce_buchi(translate_ltl(simplify_ltl(f), lambda));
  EXPECT_EQ(rl, relative_liveness(behaviors, property).holds)
      << f.to_string();

  // Theorem 5.1 whenever applicable.
  if (rl) {
    const FairImplementation impl =
        synthesize_fair_implementation(behaviors, f, lambda);
    EXPECT_TRUE(same_limit_closed_language(behaviors, impl.system))
        << f.to_string();
    EXPECT_TRUE(check_fair_satisfaction(impl.system, f, lambda)
                    .all_fair_runs_satisfy)
        << f.to_string();
  }
}

TEST(Integration, ResourceServerFamily) {
  for (std::size_t n = 1; n <= 2; ++n) {
    const ReachabilityGraph graph =
        build_reachability_graph(resource_server_net(n));
    check_consistency(graph.system, parse_ltl("G F result_0"));
    check_consistency(graph.system, parse_ltl("G !yes_0"));
    check_consistency(graph.system,
                      parse_ltl("G(request_0 -> F (result_0 || reject_0))"));
  }
}

TEST(Integration, TokenRing) {
  for (const std::size_t n : {3u, 6u}) {
    const Nfa ring = token_ring(n);
    check_consistency(ring, parse_ltl("G F work_0"));
    check_consistency(ring, parse_ltl("G F pass_0"));
    check_consistency(ring, parse_ltl("F G work_0"));
  }
}

TEST(Integration, PhilosophersWorkflow) {
  const ReachabilityGraph graph =
      build_reachability_graph(petri::philosophers_net(2).net);
  check_consistency(graph.system, patterns::infinitely_often("eat_0"));
  check_consistency(graph.system, patterns::response("hungry_0", "eat_0"));
}

TEST(Integration, ComponentsEqualPetriEverywhere) {
  // The component-based and the Petri-net-based constructions of the same
  // system agree, and so do the abstraction routes (on-the-fly vs
  // sequential vs the preservation pipeline's verdict).
  for (std::size_t n = 1; n <= 3; ++n) {
    const auto components = resource_server_components(n);
    const Nfa product = sync_product(components);
    const ReachabilityGraph graph =
        build_reachability_graph(resource_server_net(n));
    EXPECT_TRUE(nfa_equivalent(
        product, remap_alphabet(graph.system, product.alphabet())));

    const Homomorphism h =
        resource_server_abstraction(product.alphabet());
    const OnTheFlyResult otf = on_the_fly_abstraction(components, h);
    const Nfa sequential = reduced_image_nfa(product, h);
    EXPECT_TRUE(nfa_equivalent(otf.abstract.to_nfa(), sequential));

    const Formula eta = to_pnf(parse_ltl("G F result_0"));
    const AbstractionVerdict verdict =
        verify_via_abstraction(product, h, eta);
    ASSERT_TRUE(verdict.concrete_holds.has_value()) << "n=" << n;
    EXPECT_EQ(*verdict.concrete_holds,
              concrete_relative_liveness(product, h, eta))
        << "n=" << n;
  }
}

TEST(Integration, FeatureInteractionSystemsAreWellFormed) {
  // The telephone example's systems satisfy the structural assumptions the
  // pipeline needs: prefix-closed, no maximal words, simple abstraction.
  // (Mirrors examples/feature_interaction.cpp as a regression test.)
  auto sigma =
      Alphabet::make({"dial", "busy", "connect", "forward", "voicemail"});
  Nfa phone(sigma);
  const State idle = phone.add_state(true);
  const State ringing = phone.add_state(true);
  const State decision = phone.add_state(true);
  phone.add_transition(idle, sigma->id("dial"), ringing);
  phone.add_transition(ringing, sigma->id("connect"), idle);
  phone.add_transition(ringing, sigma->id("busy"), decision);
  phone.add_transition(decision, sigma->id("forward"), idle);
  phone.add_transition(decision, sigma->id("voicemail"), idle);
  phone.set_initial(idle);

  EXPECT_TRUE(is_prefix_closed(phone));
  EXPECT_FALSE(has_maximal_words(phone));
  const Homomorphism h = Homomorphism::projection(
      sigma, {"dial", "connect", "forward", "voicemail"});
  EXPECT_TRUE(check_simplicity(phone, h).simple);
  check_consistency(phone, parse_ltl("G(dial -> F(connect || forward || "
                                     "voicemail))"));
}

}  // namespace
}  // namespace rlv
