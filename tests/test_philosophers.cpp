// Integration test on the dining philosophers: a deadlocking system whose
// behavior language has maximal words — exercising deadlock detection, the
// ω-semantics of lim (doomed-to-deadlock prefixes are not behavior
// prefixes), the paper's #-extension for maximal words ([20], the remark
// after Corollary 8.4), the doom monitor, and fairness checking, together
// on one realistic distributed system.

#include <gtest/gtest.h>

#include "rlv/core/monitor.hpp"
#include "rlv/core/preservation.hpp"
#include "rlv/core/relative.hpp"
#include "rlv/fair/fair_check.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/hom/image.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/patterns.hpp"
#include "rlv/omega/lasso.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"

namespace rlv {
namespace {

ReachabilityGraph philosophers(std::size_t n) {
  return build_reachability_graph(petri::philosophers_net(n).net);
}

TEST(Philosophers, DeadlockIsReachable) {
  for (std::size_t n = 2; n <= 4; ++n) {
    const ReachabilityGraph graph = philosophers(n);
    EXPECT_TRUE(graph.complete);
    ASSERT_FALSE(graph.deadlocks.empty()) << "n=" << n;
    // The deadlock marking: every philosopher holds the left fork.
    const Marking dead = graph.marking(graph.deadlocks.front());
    const PetriNet net = petri::philosophers_net(n).net;
    for (PlaceId p = 0; p < net.num_places(); ++p) {
      if (net.place_name(p).starts_with("has_left")) {
        EXPECT_EQ(dead[p], 1u) << net.place_name(p);
      }
      if (net.place_name(p).starts_with("fork")) {
        EXPECT_EQ(dead[p], 0u) << net.place_name(p);
      }
    }
  }
}

TEST(Philosophers, BehaviorLanguageHasMaximalWords) {
  const ReachabilityGraph graph = philosophers(3);
  EXPECT_TRUE(has_maximal_words(graph.system));
  const Nfa extended = extend_maximal_words(graph.system);
  EXPECT_FALSE(has_maximal_words(extended));
}

TEST(Philosophers, EveryoneEatsIsRelativeLiveness) {
  // On the ω-behaviors (deadlocked prefixes have no infinite continuation
  // and drop out of lim), every philosopher can always eventually eat
  // again: □◇eat_0 is relative liveness.
  const ReachabilityGraph graph = philosophers(3);
  const Buchi behaviors = limit_of_prefix_closed(graph.system);
  const Labeling lambda = Labeling::canonical(graph.system.alphabet());
  EXPECT_TRUE(
      relative_liveness(behaviors, patterns::infinitely_often("eat_0"),
                        lambda)
          .holds);
  // But it is not classically satisfied (others may hog the table).
  EXPECT_FALSE(
      satisfies(behaviors, patterns::infinitely_often("eat_0"), lambda).holds);
}

TEST(Philosophers, MonitorFlagsTheDeadlockPath) {
  // Taking every left fork leaves lim(L): no infinite continuation exists.
  // The monitor reports exactly that.
  const ReachabilityGraph graph = philosophers(3);
  const Buchi behaviors = limit_of_prefix_closed(graph.system);
  const Labeling lambda = Labeling::canonical(graph.system.alphabet());
  DoomMonitor monitor(behaviors, patterns::infinitely_often("eat_0"), lambda);

  const auto& sigma = graph.system.alphabet();
  const Word doom_path = {sigma->id("hungry_0"), sigma->id("left_0"),
                          sigma->id("hungry_1"), sigma->id("left_1"),
                          sigma->id("hungry_2")};
  EXPECT_EQ(monitor.run(doom_path), MonitorVerdict::kSatisfiable);
  // The last left fork seals the deadlock: the trace leaves the ω-behavior
  // set entirely (no infinite continuation), which the monitor
  // distinguishes from mere property-doom.
  EXPECT_EQ(monitor.step(sigma->id("left_2")), MonitorVerdict::kLeftSystem);
}

TEST(Philosophers, StrongFairnessDoesNotPreventStarvationByDesign) {
  // Even strongly fair runs can starve philosopher 0? No: strong transition
  // fairness on the reachability graph means every transition enabled
  // infinitely often fires infinitely often — including right_0 whenever
  // it keeps being enabled. Whether GF eat_0 holds under fairness is thus a
  // non-obvious model-checking question; we record the checker's verdict
  // and validate any counterexample it produces.
  const ReachabilityGraph graph = philosophers(2);
  const Buchi behaviors = limit_of_prefix_closed(graph.system);
  const Labeling lambda = Labeling::canonical(graph.system.alphabet());
  const auto res = check_fair_satisfaction(
      behaviors, patterns::infinitely_often("eat_0"), lambda);
  if (!res.all_fair_runs_satisfy) {
    ASSERT_TRUE(res.counterexample.has_value());
    // The counterexample must be a genuine behavior avoiding eat_0 in its
    // period.
    const Symbol eat0 = graph.system.alphabet()->id("eat_0");
    for (const Symbol s : res.counterexample->period) EXPECT_NE(s, eat0);
  }
}

TEST(Philosophers, ProcessFairnessVerdictsAreValidated) {
  // Per-philosopher process fairness: a process enabled infinitely often
  // must act infinitely often — but may choose *which* of its actions, so
  // it is coarser than transition fairness. Record and validate the
  // checker's verdicts for GF eat_0 under the two notions.
  const ReachabilityGraph graph = philosophers(2);
  const Buchi behaviors = limit_of_prefix_closed(graph.system);
  const Labeling lambda = Labeling::canonical(graph.system.alphabet());
  const Formula goal = patterns::infinitely_often("eat_0");

  const auto strong = check_fair_satisfaction(behaviors, goal, lambda);
  const auto process = check_process_fair_satisfaction(
      behaviors, goal, lambda,
      {"hungry_0", "left_0", "right_0", "eat_0", "done_0"});
  // Process fairness constrains fewer runs than per-transition fairness
  // (here the single group merges all of philosopher 0's transitions and
  // leaves philosopher 1 completely unconstrained), so satisfaction under
  // process fairness implies satisfaction under transition fairness... not
  // conversely. Check the implication and validate counterexamples.
  if (process.all_fair_runs_satisfy) {
    EXPECT_TRUE(strong.all_fair_runs_satisfy);
  }
  for (const auto* res : {&strong, &process}) {
    if (res->counterexample) {
      EXPECT_TRUE(accepts_lasso(behaviors, *res->counterexample));
      const Symbol eat0 = graph.system.alphabet()->id("eat_0");
      std::size_t count = 0;
      for (const Symbol s : res->counterexample->period) {
        count += (s == eat0) ? 1 : 0;
      }
      EXPECT_EQ(count, 0u);
    }
  }
}

TEST(Philosophers, MaximalWordsConcreteVsAbstract) {
  // The concrete behavior language has maximal words (deadlocks). Its image
  // under the philosopher-0 projection does NOT: the image of a
  // deadlock-bound word (e.g. "hungry_0") can also arise from deadlock-free
  // executions and stays extendable — maximal words in h(L) would require
  // *every* preimage to get stuck. This is exactly why the paper treats
  // maximal-word visibility separately ([20]): hiding can silently erase
  // the evidence of a deadlock, and the #-extension keeps it observable.
  const ReachabilityGraph graph = philosophers(3);
  EXPECT_TRUE(has_maximal_words(graph.system));

  const Homomorphism h = Homomorphism::projection(
      graph.system.alphabet(), {"hungry_0", "eat_0", "done_0"});
  const Nfa image = image_nfa(graph.system, h);
  EXPECT_FALSE(has_maximal_words(image));

  // With the #-extension, the deadlock stays visible at the abstract level:
  // pad is kept by the (extended) projection, and a pad-containing abstract
  // word witnesses the deadlock.
  const Nfa repaired = extend_maximal_words(graph.system, "pad");
  EXPECT_FALSE(has_maximal_words(repaired));
  std::vector<std::string> kept = {"hungry_0", "eat_0", "done_0", "pad"};
  const Homomorphism h_pad =
      Homomorphism::projection(repaired.alphabet(), kept);
  const Nfa image_pad = image_nfa(repaired, h_pad);
  // A deadlock reveals itself abstractly: some abstract word contains pad.
  bool pad_reachable = false;
  const Symbol pad = h_pad.target()->id("pad");
  for (const Word& w : enumerate_words(image_pad, 3)) {
    for (const Symbol s : w) pad_reachable = pad_reachable || s == pad;
  }
  EXPECT_TRUE(pad_reachable);
}

TEST(Philosophers, StateSpaceSizes) {
  // Documented sizes (regression guard for the family).
  EXPECT_EQ(philosophers(2).system.num_states(), 13u);
  EXPECT_EQ(philosophers(3).system.num_states(), 45u);
}

}  // namespace
}  // namespace rlv
