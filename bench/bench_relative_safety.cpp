// Experiment E4 (Theorem 4.5), safety side: cost of the relative safety
// decision (Lemma 4.4: determinize the prefix automaton of L ∩ P, intersect
// with ¬P, emptiness) on the scalable server family, for a safety-flavored
// and a liveness-flavored property.

#include <benchmark/benchmark.h>

#include "rlv/core/relative.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/emptiness.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/omega/product.hpp"
#include "rlv/petri/reachability.hpp"

namespace {

using namespace rlv;

void BM_RelativeSafety_ResourceServer(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool liveness_flavor = state.range(1) != 0;
  const ReachabilityGraph graph =
      build_reachability_graph(resource_server_net(n));
  const Buchi system = limit_of_prefix_closed(graph.system);
  const Labeling lambda = Labeling::canonical(graph.system.alphabet());
  const Formula f = liveness_flavor ? parse_ltl("G F result_0")
                                    : parse_ltl("G !yes_0");

  bool holds = false;
  for (auto _ : state) {
    holds = relative_safety(system, f, lambda).holds;
    benchmark::DoNotOptimize(holds);
  }
  state.counters["states"] = static_cast<double>(graph.system.num_states());
  state.counters["holds"] = holds ? 1 : 0;
}
BENCHMARK(BM_RelativeSafety_ResourceServer)
    ->ArgsProduct({{1, 2, 3}, {0, 1}})
    ->ArgNames({"clients", "liveness_flavor"})
    ->Unit(benchmark::kMillisecond);

// Experiment E23: on-the-fly vs materialized emptiness for the Lemma 4.4
// check L_ω ∩ lim(pre(L_ω ∩ P)) ∩ ¬P = ∅ on the scalable server family.
// lazy = 0 materializes the triple product and decides it with the SCC
// pass (omega_empty); lazy = 1 runs the nested DFS over OnTheFlyProduct,
// paying only for visited states.
void BM_OnTheFlySafety(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool lazy = state.range(1) != 0;
  const ReachabilityGraph graph =
      build_reachability_graph(resource_server_net(n));
  const Buchi system = limit_of_prefix_closed(graph.system);
  const Labeling lambda = Labeling::canonical(graph.system.alphabet());
  const Formula f = parse_ltl("G F result_0");
  const Buchi property = translate_ltl(f, lambda);
  const Buchi negated = translate_ltl_negated(f, lambda);
  const Buchi closure =
      limit_of_prefix_closed(prefix_nfa(intersect_buchi(system, property)));

  bool empty = false;
  for (auto _ : state) {
    if (lazy) {
      empty = !find_accepting_lasso_product({&system, &closure, &negated})
                   .has_value();
    } else {
      const Buchi bad =
          intersect_buchi(intersect_buchi(system, closure), negated);
      empty = omega_empty(bad);
    }
    benchmark::DoNotOptimize(empty);
  }
  state.counters["states"] = static_cast<double>(graph.system.num_states());
  state.counters["holds"] = empty ? 1 : 0;
}
BENCHMARK(BM_OnTheFlySafety)
    ->ArgsProduct({{2, 3, 4}, {0, 1}})
    ->ArgNames({"clients", "lazy"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
