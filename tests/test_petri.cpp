// Tests for the Petri-net substrate (rlv_petri): firing rule, read arcs,
// reachability graphs (Figure 1 → Figure 2), deadlock detection, the
// boundedness guard, the textual net format, the budget-governed interned
// unfolder, and the scenario families' state spaces.

#include <gtest/gtest.h>

#include <string>

#include "rlv/gen/families.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/petri/format.hpp"
#include "rlv/petri/net.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {
namespace {

TEST(PetriNet, FiringRule) {
  PetriNet net;
  const PlaceId p = net.add_place("p", 2);
  const PlaceId q = net.add_place("q", 0);
  const TransId t = net.add_transition("t");
  net.add_input(t, p, 2);
  net.add_output(t, q, 1);

  const Marking m0 = net.initial_marking();
  EXPECT_TRUE(net.enabled(t, m0));
  const Marking m1 = net.fire(t, m0);
  EXPECT_EQ(m1[p], 0u);
  EXPECT_EQ(m1[q], 1u);
  EXPECT_FALSE(net.enabled(t, m1));
  EXPECT_TRUE(net.is_deadlock(m1));
}

TEST(PetriNet, ReadArcDoesNotConsume) {
  PetriNet net;
  const PlaceId flag = net.add_place("flag", 1);
  const PlaceId work = net.add_place("work", 1);
  const TransId t = net.add_transition("t");
  net.add_read(t, flag);
  net.add_input(t, work);

  const Marking m1 = net.fire(t, net.initial_marking());
  EXPECT_EQ(m1[flag], 1u);
  EXPECT_EQ(m1[work], 0u);
}

TEST(Reachability, Figure1GraphMatchesFigure2) {
  const ReachabilityGraph graph = build_reachability_graph(figure1_net());
  EXPECT_TRUE(graph.complete);
  EXPECT_EQ(graph.system.num_states(), 8u);
  EXPECT_TRUE(graph.deadlocks.empty());

  const Nfa fig2 = figure2_system();
  const Nfa remapped = remap_alphabet(graph.system, fig2.alphabet());
  EXPECT_TRUE(nfa_equivalent(remapped, fig2));
}

TEST(Reachability, BoundedGuardTriggers) {
  // Unbounded net: a transition that only produces.
  PetriNet net;
  const PlaceId p = net.add_place("p", 1);
  const TransId t = net.add_transition("grow");
  net.add_read(t, p);
  net.add_output(t, p);
  ReachabilityOptions options;
  options.max_states = 16;
  const ReachabilityGraph graph = build_reachability_graph(net, options);
  EXPECT_FALSE(graph.complete);
  EXPECT_EQ(graph.system.num_states(), 16u);
}

TEST(Reachability, ProducerConsumerStateCount) {
  // Buffer occupancy 0..capacity → capacity+1 markings.
  for (std::size_t cap = 1; cap <= 5; ++cap) {
    const ReachabilityGraph graph =
        build_reachability_graph(producer_consumer_net(cap));
    EXPECT_TRUE(graph.complete);
    EXPECT_EQ(graph.system.num_states(), cap + 1);
    EXPECT_TRUE(graph.deadlocks.empty());
  }
}

TEST(Reachability, ResourceServerScaling) {
  // 2 resource states × 4 phases per client.
  for (std::size_t n = 1; n <= 3; ++n) {
    const ReachabilityGraph graph =
        build_reachability_graph(resource_server_net(n));
    EXPECT_TRUE(graph.complete);
    std::size_t expected = 2;
    for (std::size_t i = 0; i < n; ++i) expected *= 4;
    EXPECT_EQ(graph.system.num_states(), expected) << "n=" << n;
    EXPECT_TRUE(graph.deadlocks.empty());
  }
}

TEST(Reachability, GraphIsPrefixClosedTransitionSystem) {
  const ReachabilityGraph graph = build_reachability_graph(figure1_net());
  for (State s = 0; s < graph.system.num_states(); ++s) {
    EXPECT_TRUE(graph.system.is_accepting(s));
  }
  EXPECT_TRUE(is_prefix_closed(graph.system));
}

TEST(Reachability, DeadlockDetection) {
  PetriNet net;
  const PlaceId p = net.add_place("p", 1);
  const PlaceId q = net.add_place("q", 0);
  const TransId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, q);
  const ReachabilityGraph graph = build_reachability_graph(net);
  EXPECT_EQ(graph.system.num_states(), 2u);
  ASSERT_EQ(graph.deadlocks.size(), 1u);
  EXPECT_EQ(graph.marking(graph.deadlocks[0])[q], 1u);
}

TEST(Reachability, OneSafeNetsStayInBitsetStorage) {
  const ReachabilityGraph graph = build_reachability_graph(figure1_net());
  EXPECT_TRUE(graph.one_safe);
  EXPECT_FALSE(graph.marking_bits.empty());
  EXPECT_TRUE(graph.marking_counts.empty());
  for (State s = 0; s < graph.system.num_states(); ++s) {
    const Marking m = graph.marking(s);
    for (PlaceId p = 0; p < graph.num_places; ++p) {
      EXPECT_LE(m[p], 1u);
      EXPECT_EQ(m[p], graph.tokens(s, p));
    }
  }
}

TEST(Reachability, NonSafeNetFallsBackToCountRows) {
  // producer_consumer_net(3) accumulates up to 3 tokens on the buffer
  // place: the unfolder must convert its interned store to count rows
  // mid-exploration (same dense ids, no restart) and keep going.
  const ReachabilityGraph graph =
      build_reachability_graph(producer_consumer_net(3));
  EXPECT_TRUE(graph.complete);
  EXPECT_FALSE(graph.one_safe);
  EXPECT_TRUE(graph.marking_bits.empty());
  EXPECT_FALSE(graph.marking_counts.empty());
  std::uint32_t max_tokens = 0;
  for (State s = 0; s < graph.system.num_states(); ++s) {
    for (PlaceId p = 0; p < graph.num_places; ++p) {
      max_tokens = std::max(max_tokens, graph.tokens(s, p));
    }
  }
  EXPECT_EQ(max_tokens, 3u);
}

TEST(Reachability, BudgetChargesPetriUnfoldStage) {
  Budget budget;
  const ReachabilityGraph graph =
      build_reachability_graph(figure1_net(), {}, &budget);
  EXPECT_EQ(graph.system.num_states(), 8u);
  EXPECT_EQ(budget.profile()[Stage::kPetriUnfold].states_built, 8u);
}

TEST(Reachability, BudgetExhaustionReportsPetriUnfold) {
  Budget budget;
  budget.set_max_states(4);
  try {
    (void)build_reachability_graph(figure1_net(), {}, &budget);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.stage(), Stage::kPetriUnfold);
    EXPECT_EQ(e.kind(), ResourceExhausted::Kind::kStates);
  }
}

// ---------------------------------------------------------------------------
// Textual net format.

TEST(NetFormat, SerializeParseRoundTrip) {
  const petri::NetFile phil = petri::philosophers_net(3);
  const petri::NetFile reparsed =
      petri::parse_net(petri::serialize_net(phil));
  EXPECT_EQ(reparsed.name, phil.name);
  EXPECT_EQ(reparsed.hidden, phil.hidden);
  const ReachabilityGraph a = build_reachability_graph(phil.net);
  const ReachabilityGraph b = build_reachability_graph(reparsed.net);
  ASSERT_EQ(a.system.num_states(), b.system.num_states());
  EXPECT_EQ(a.deadlocks.size(), b.deadlocks.size());
  EXPECT_TRUE(nfa_equivalent(
      a.system, remap_alphabet(b.system, a.system.alphabet())));
}

TEST(NetFormat, ParsesWeightsCommentsAndDefaults) {
  const petri::NetFile file = petri::parse_net(
      "# a weighted pair\n"
      "net pair\n"
      "place p 2\n"
      "place q\n"
      "trans t  # consumes both tokens\n"
      "in p 2\n"
      "out q\n");
  EXPECT_EQ(file.name, "pair");
  EXPECT_TRUE(file.hidden.empty());
  const ReachabilityGraph graph = build_reachability_graph(file.net);
  EXPECT_EQ(graph.system.num_states(), 2u);
  EXPECT_EQ(graph.deadlocks.size(), 1u);
}

TEST(NetFormat, BudgetChargesPlacesAndTransitionsUnderParse) {
  const std::string text = petri::serialize_net(petri::philosophers_net(3));
  const petri::NetFile unbudgeted = petri::parse_net(text);
  Budget budget;
  const petri::NetFile file = petri::parse_net(text, &budget);
  EXPECT_EQ(file.net.num_places(), unbudgeted.net.num_places());
  EXPECT_EQ(budget.profile()[Stage::kParse].states_built,
            file.net.num_places() + file.net.num_transitions());

  // More places than the cap: the parse trips before building the net.
  std::string many;
  for (int p = 0; p < 20; ++p) many += "place p" + std::to_string(p) + "\n";
  Budget capped;
  capped.set_max_states(10);
  try {
    (void)petri::parse_net(many, &capped);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.stage(), Stage::kParse);
    EXPECT_EQ(e.kind(), ResourceExhausted::Kind::kStates);
  }
}

TEST(NetFormat, StrictRejectionsCarryLineNumbers) {
  const auto reject_line = [](const char* text) -> std::size_t {
    try {
      (void)petri::parse_net(text);
    } catch (const petri::NetParseError& e) {
      return e.line();
    }
    return static_cast<std::size_t>(-1);  // accepted: fail the expectation
  };
  // Arc before any transition.
  EXPECT_EQ(reject_line("place p 1\nin p\n"), 2u);
  // Duplicate place.
  EXPECT_EQ(reject_line("place p\nplace p\n"), 2u);
  // Arc to an unknown place.
  EXPECT_EQ(reject_line("place p\ntrans t\nin q\n"), 3u);
  // Duplicate arc of the same kind.
  EXPECT_EQ(reject_line("place p 1\ntrans t\nin p\nin p\n"), 4u);
  // Unknown directive.
  EXPECT_EQ(reject_line("flace p\n"), 1u);
  // Malformed token count.
  EXPECT_EQ(reject_line("place p x\n"), 1u);
  // hide of a label no transition carries (reported on the hide line).
  EXPECT_EQ(reject_line("place p 1\ntrans t\nin p\nhide u\n"), 4u);
  // Duplicate hide.
  EXPECT_EQ(reject_line("place p 1\ntrans t\nin p\nhide t t\n"), 4u);
  // Second net directive.
  EXPECT_EQ(reject_line("net a\nnet b\n"), 2u);
}

// ---------------------------------------------------------------------------
// Scenario families.

TEST(Scenario, PhilosophersDeadlockAndScale) {
  std::size_t previous = 0;
  for (std::size_t n = 2; n <= 5; ++n) {
    const petri::NetFile file = petri::philosophers_net(n);
    const ReachabilityGraph graph = build_reachability_graph(file.net);
    EXPECT_TRUE(graph.complete);
    EXPECT_TRUE(graph.one_safe);
    // Everyone grabs the left fork: the classic circular-wait deadlock.
    EXPECT_FALSE(graph.deadlocks.empty()) << "n=" << n;
    EXPECT_GT(graph.system.num_states(), previous);
    previous = graph.system.num_states();
  }
}

TEST(Scenario, RingAndFlightAreDeadlockFree) {
  for (std::size_t n = 2; n <= 4; ++n) {
    const ReachabilityGraph ring =
        build_reachability_graph(petri::ring_workflow_net(n).net);
    EXPECT_TRUE(ring.complete);
    EXPECT_TRUE(ring.deadlocks.empty()) << "ring n=" << n;
  }
  const petri::NetFile flight = petri::flight_workflow_net();
  const ReachabilityGraph graph = build_reachability_graph(flight.net);
  EXPECT_TRUE(graph.complete);
  EXPECT_TRUE(graph.deadlocks.empty());
  EXPECT_FALSE(flight.hidden.empty());
}

TEST(Scenario, DeriveAbstractionRejectsUnknownLabels) {
  const petri::NetFile file = petri::bounded_buffer_net(2);
  const ReachabilityGraph graph = build_reachability_graph(file.net);
  EXPECT_NO_THROW(
      petri::derive_abstraction(graph.system.alphabet(), file.hidden));
  EXPECT_THROW(
      petri::derive_abstraction(graph.system.alphabet(), {"no_such_label"}),
      std::invalid_argument);
}

}  // namespace
}  // namespace rlv
