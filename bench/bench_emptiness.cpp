// Experiment E12 ablation: Büchi emptiness via SCC decomposition (Tarjan,
// omega_empty) vs nested DFS (Courcoubetis et al.) on large random automata
// and on the product automata the relative-liveness checker actually
// produces. The nested DFS is the on-the-fly product search that sat and rs
// run, here over one operand, which is that operand itself.

#include <benchmark/benchmark.h>

#include "rlv/gen/families.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/emptiness.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/omega/product.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/util/rng.hpp"

namespace {

using namespace rlv;

bool is_empty(const Buchi& a, bool ndfs) {
  return ndfs ? !find_accepting_lasso_product({&a}).has_value()
              : omega_empty(a);
}

void BM_Emptiness_RandomBuchi(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool ndfs = state.range(1) != 0;
  Rng rng(11);
  auto sigma = random_alphabet(2);
  const Buchi a = random_buchi(rng, n, sigma);
  bool empty = false;
  for (auto _ : state) {
    empty = is_empty(a, ndfs);
    benchmark::DoNotOptimize(empty);
  }
  state.counters["empty"] = empty ? 1 : 0;
}
BENCHMARK(BM_Emptiness_RandomBuchi)
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}})
    ->ArgNames({"states", "ndfs"})
    ->Unit(benchmark::kMillisecond);

void BM_Emptiness_ServerProduct(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool ndfs = state.range(1) != 0;
  const ReachabilityGraph graph =
      build_reachability_graph(resource_server_net(n));
  const Buchi system = limit_of_prefix_closed(graph.system);
  const Labeling lambda = Labeling::canonical(graph.system.alphabet());
  const Buchi bad =
      intersect_buchi(system, translate_ltl_negated(
                                  parse_ltl("G F result_0"), lambda));
  bool empty = false;
  for (auto _ : state) {
    empty = is_empty(bad, ndfs);
    benchmark::DoNotOptimize(empty);
  }
  state.counters["product_states"] = static_cast<double>(bad.num_states());
  state.counters["empty"] = empty ? 1 : 0;
}
BENCHMARK(BM_Emptiness_ServerProduct)
    ->ArgsProduct({{2, 3, 4}, {0, 1}})
    ->ArgNames({"clients", "ndfs"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
