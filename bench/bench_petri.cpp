// Experiments E15/E29: Petri-net reachability-graph construction (the
// Figure 1 → Figure 2 step) on the scalable families — the state-space
// generation cost that the behavior-abstraction technique is designed to
// avoid paying for every property — plus the budget-governed unfolder
// (interned markings, Stage::kPetriUnfold accounting) and the textual net
// format round-trip.

#include <benchmark/benchmark.h>

#include "rlv/gen/families.hpp"
#include "rlv/petri/format.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"
#include "rlv/util/budget.hpp"

namespace {

using namespace rlv;

void BM_Petri_ResourceServer(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const PetriNet net = resource_server_net(n);
  std::size_t states = 0;
  for (auto _ : state) {
    const ReachabilityGraph graph = build_reachability_graph(net);
    states = graph.system.num_states();
    benchmark::DoNotOptimize(states);
  }
  state.counters["graph_states"] = static_cast<double>(states);
}
BENCHMARK(BM_Petri_ResourceServer)
    ->DenseRange(1, 6)
    ->Unit(benchmark::kMillisecond);

void BM_Petri_ProducerConsumer(benchmark::State& state) {
  const std::size_t cap = static_cast<std::size_t>(state.range(0));
  const PetriNet net = producer_consumer_net(cap);
  std::size_t states = 0;
  for (auto _ : state) {
    const ReachabilityGraph graph = build_reachability_graph(net);
    states = graph.system.num_states();
    benchmark::DoNotOptimize(states);
  }
  state.counters["graph_states"] = static_cast<double>(states);
}
BENCHMARK(BM_Petri_ProducerConsumer)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_Petri_DiningPhilosophers(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const PetriNet net = petri::philosophers_net(n).net;
  std::size_t states = 0;
  std::size_t deadlocks = 0;
  for (auto _ : state) {
    const ReachabilityGraph graph = build_reachability_graph(net);
    states = graph.system.num_states();
    deadlocks = graph.deadlocks.size();
    benchmark::DoNotOptimize(states);
  }
  state.counters["graph_states"] = static_cast<double>(states);
  state.counters["deadlocks"] = static_cast<double>(deadlocks);
}
BENCHMARK(BM_Petri_DiningPhilosophers)
    ->DenseRange(2, 7)
    ->Unit(benchmark::kMillisecond);

void BM_Petri_PhilosophersBudgeted(benchmark::State& state) {
  // The governed unfold path (E29): a fresh Budget per iteration, charged
  // one state per interned marking under Stage::kPetriUnfold. The cap is
  // generous enough never to trip, so the delta against the ungoverned
  // DiningPhilosophers series is the pure governance overhead.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const PetriNet net = petri::philosophers_net(n).net;
  std::uint64_t charged = 0;
  std::uint64_t peak_memory = 0;
  for (auto _ : state) {
    Budget budget;
    budget.set_max_states(200000);
    const ReachabilityGraph graph = build_reachability_graph(net, {}, &budget);
    const StageMetrics& metrics = budget.profile()[Stage::kPetriUnfold];
    charged = metrics.states_built;
    peak_memory = metrics.peak_memory_bytes;
    benchmark::DoNotOptimize(graph.system.num_states());
  }
  state.counters["charged_states"] = static_cast<double>(charged);
  state.counters["peak_memory_bytes"] = static_cast<double>(peak_memory);
}
BENCHMARK(BM_Petri_PhilosophersBudgeted)
    ->DenseRange(2, 7)
    ->Unit(benchmark::kMillisecond);

void BM_Petri_NetFormatRoundTrip(benchmark::State& state) {
  // serialize_net + strict parse_net of the philosophers family — the cost
  // of moving a scenario through the textual `.pn` interchange format.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const petri::NetFile file = petri::philosophers_net(n);
  const std::string text = petri::serialize_net(file);
  std::size_t transitions = 0;
  for (auto _ : state) {
    const petri::NetFile parsed = petri::parse_net(text);
    transitions = parsed.net.num_transitions();
    benchmark::DoNotOptimize(transitions);
  }
  state.counters["bytes"] = static_cast<double>(text.size());
  state.counters["transitions"] = static_cast<double>(transitions);
}
BENCHMARK(BM_Petri_NetFormatRoundTrip)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_Petri_Figure1(benchmark::State& state) {
  const PetriNet net = figure1_net();
  std::size_t states = 0;
  for (auto _ : state) {
    const ReachabilityGraph graph = build_reachability_graph(net);
    states = graph.system.num_states();
    benchmark::DoNotOptimize(states);
  }
  state.counters["graph_states"] = static_cast<double>(states);
}
BENCHMARK(BM_Petri_Figure1)->Unit(benchmark::kMicrosecond);

}  // namespace
