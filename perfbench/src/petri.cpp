// petri_abstraction: the in-process net -> unfold -> abstract -> verify
// pipeline of Theorems 8.2/8.3 over seeded scenario nets.

#include <array>
#include <thread>

#include "bench.hpp"
#include "inputs.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kCallers = 2;

}  // namespace

void run_petri_abstraction(const Options& opts, Result& result) {
  // Set-up builds the nets and runs each pipeline once; that first pass is
  // also the reference every timed repetition must reproduce.
  std::vector<double> setups;
  std::vector<PetriInstance> instances;
  std::vector<PipelineSummary> reference;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    instances = petri_instances(opts.seed);
    reference.clear();
    for (const PetriInstance& instance : instances) {
      reference.push_back(run_pipeline(instance));
    }
    setups.push_back(us_between(t0, Clock::now()) / 1e6);
  }

  // Two callers, like the two connections of the served workloads, each
  // walking the instance list from its own half.
  struct Caller {
    std::size_t next = 0;
    std::uint64_t attempted = 0;
    Slices slices;
    std::vector<std::uint64_t> runs, mismatches;
    std::vector<std::vector<double>> per_instance;
  };
  std::array<Caller, kCallers> callers;
  const Window window = measured_window(opts.seconds);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      Caller& c = callers[t];
      c.next = t * instances.size() / kCallers;
      c.runs.resize(instances.size());
      c.mismatches.resize(instances.size());
      c.per_instance.resize(instances.size());
      while (Clock::now() < window.close) {
        const std::size_t idx = c.next++ % instances.size();
        const auto t0 = Clock::now();
        const PipelineSummary summary = run_pipeline(instances[idx]);
        const double us = us_between(t0, Clock::now());
        c.slices.record(window, t0, us);
        if (window.slice(t0) >= 0) c.per_instance[idx].push_back(us);
        ++c.runs[idx];
        ++c.attempted;
        if (!(summary == reference[idx])) ++c.mismatches[idx];
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Correctness: every conclusion the pipeline drew (concrete_holds set)
  // against the direct concrete check, once per distinct instance.
  std::uint64_t transferred = 0, refuted = 0, undecided = 0;
  JsonObject instance_p50;
  for (std::size_t idx = 0; idx < instances.size(); ++idx) {
    const PipelineSummary& s = reference[idx];
    std::vector<double> latencies;
    std::uint64_t runs = 0, mismatches = 0;
    for (const Caller& c : callers) {
      latencies.insert(latencies.end(), c.per_instance[idx].begin(),
                       c.per_instance[idx].end());
      runs += c.runs[idx];
      mismatches += c.mismatches[idx];
    }
    instance_p50.number(instances[idx].name + ": " + instances[idx].eta,
                        median_of(latencies));
    if (!s.concrete_holds) {
      ++undecided;
    } else if (*s.concrete_holds) {
      ++transferred;
    } else {
      ++refuted;
    }
    if (mismatches > 0) {
      result.failed += mismatches;
      result.error("petri " + instances[idx].name + " / " + instances[idx].eta +
                   ": verdict changed between runs");
    }
    if (!pipeline_verdict_valid(instances[idx], s)) {
      result.failed += runs;
      result.error("petri " + instances[idx].name + " / " + instances[idx].eta +
                   ": pipeline verdict differs from the concrete check");
    }
  }
  Slices slices;
  for (const Caller& c : callers) {
    result.attempted += c.attempted;
    slices.merge(c.slices);
  }
  report_end_to_end(result, median_of(setups), window, slices, peak_rss_mb());
  result.add_record("instances",
                    JsonObject()
                        .number("transferred_thm82", static_cast<double>(transferred))
                        .number("refuted_thm83", static_cast<double>(refuted))
                        .number("undecided", static_cast<double>(undecided))
                        .raw("p50_us", instance_p50.str())
                        .str());
}

}  // namespace perfbench
