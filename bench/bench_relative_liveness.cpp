// Experiment E4 (Theorem 4.5): cost of the relative liveness decision on
// scalable systems — the n-client resource server (states 2·4^n) and token
// rings — with the antichain vs subset-construction inclusion ablation.

#include <benchmark/benchmark.h>

#include "rlv/core/relative.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/petri/reachability.hpp"

namespace {

using namespace rlv;

void BM_RelativeLiveness_ResourceServer(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const InclusionAlgorithm algorithm = state.range(1) == 0
                                           ? InclusionAlgorithm::kAntichain
                                           : InclusionAlgorithm::kSubset;
  const ReachabilityGraph graph =
      build_reachability_graph(resource_server_net(n));
  const Buchi system = limit_of_prefix_closed(graph.system);
  const Labeling lambda = Labeling::canonical(graph.system.alphabet());
  const Formula f = parse_ltl("G F result_0");

  // Lemma 4.3 by hand, so the inclusion algorithm can be chosen.
  bool holds = false;
  for (auto _ : state) {
    holds = is_included(
        prefix_nfa(system),
        prefix_of_intersection(system, translate_ltl(f, lambda)), algorithm);
    benchmark::DoNotOptimize(holds);
  }
  state.counters["states"] = static_cast<double>(graph.system.num_states());
  state.counters["holds"] = holds ? 1 : 0;
}
BENCHMARK(BM_RelativeLiveness_ResourceServer)
    ->ArgsProduct({{1, 2, 3, 4}, {0, 1}})
    ->ArgNames({"clients", "subset"})
    ->Unit(benchmark::kMillisecond);

void BM_RelativeLiveness_TokenRing(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Nfa ring = token_ring(n);
  const Buchi system = limit_of_prefix_closed(ring);
  const Labeling lambda = Labeling::canonical(ring.alphabet());
  const Formula f = parse_ltl("G F work_0");

  bool holds = false;
  for (auto _ : state) {
    holds = relative_liveness(system, f, lambda).holds;
    benchmark::DoNotOptimize(holds);
  }
  state.counters["states"] = static_cast<double>(ring.num_states());
  state.counters["holds"] = holds ? 1 : 0;
}
BENCHMARK(BM_RelativeLiveness_TokenRing)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// The buggy server (Figure 3 shape) scaled: the check must *fail* and
// produce a counterexample prefix; failing checks are often faster (early
// exit) — measured to document the asymmetry.
void BM_RelativeLiveness_BuggyServer(benchmark::State& state) {
  const Nfa fig3 = figure3_system();
  const Buchi system = limit_of_prefix_closed(fig3);
  const Labeling lambda = Labeling::canonical(fig3.alphabet());
  const Formula f = parse_ltl("G F result");
  bool holds = true;
  for (auto _ : state) {
    holds = relative_liveness(system, f, lambda).holds;
    benchmark::DoNotOptimize(holds);
  }
  state.counters["holds"] = holds ? 1 : 0;
}
BENCHMARK(BM_RelativeLiveness_BuggyServer)->Unit(benchmark::kMicrosecond);

}  // namespace
