// perfbench: the rlv benchmark program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --rlvd PATH
//             [--out-dir DIR] [--commit C] [--source-sha D]
//
// Prints two lines on stdout: a record that starts with the host block and
// the seed (followed by workload details and correctness tallies), then
// the result line {"correct","attempted","failed","metrics"}. Exits 1 when
// any answer was wrong or any operation failed, 2 on bad usage or when the
// run could not be carried out at all.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_warm|serve_cold|"
               "monitor_stream|petri_abstraction --seed N --seconds S "
               "--trace 0|1 --rlvd PATH [--out-dir DIR] [--commit C] "
               "[--source-sha D]\n");
  return 2;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string host_block(const Options& opts) {
  return JsonObject()
      .number("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .string("compiler", compiler())
      .string("build_type", PERFBENCH_BUILD_TYPE)
      .string("commit", opts.commit)
      .string("source_sha256", opts.source_sha)
      .str();
}

/// Keeps every core busy for a second before anything is measured: on
/// hosts that clock idle cores down, the first second of work otherwise
/// runs measurably slower than the rest of the run.
void warm_up_cores() {
  const auto until = Clock::now() + std::chrono::seconds(1);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency()); ++i) {
    threads.emplace_back([until] {
      volatile std::uint64_t sink = 0;
      while (Clock::now() < until) {
        for (int k = 0; k < 1000; ++k) sink = sink + 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--rlvd") {
      opts.rlvd = value;
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else if (arg == "--commit") {
      opts.commit = value;
    } else if (arg == "--source-sha") {
      opts.source_sha = value;
    } else {
      return usage();
    }
  }
  const bool known = opts.workload == "serve_warm" ||
                     opts.workload == "serve_cold" ||
                     opts.workload == "monitor_stream" ||
                     opts.workload == "petri_abstraction";
  if (argc % 2 == 0 || !known || opts.rlvd.empty() || !(opts.seconds > 0)) {
    return usage();
  }

  Result result;
  try {
    warm_up_cores();
    if (opts.trace) {
      run_traced(opts, result);
    } else if (opts.workload == "serve_warm") {
      run_serve_warm(opts, result);
    } else if (opts.workload == "serve_cold") {
      run_serve_cold(opts, result);
    } else if (opts.workload == "monitor_stream") {
      run_monitor_stream(opts, result);
    } else {
      run_petri_abstraction(opts, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: wrong: %s\n", e.c_str());
  }
  const bool correct = result.errors.empty() && result.failed == 0;
  JsonObject metrics;
  for (const Metric& m : result.metrics) {
    metrics.raw(m.name,
                JsonObject().number("value", m.value).string("unit", m.unit).str());
  }
  const double attempted = static_cast<double>(result.attempted);
  const double fail_ratio =
      attempted > 0 ? static_cast<double>(result.failed) / attempted : 1;
  std::cout << JsonObject()
                   .raw("host", host_block(opts))
                   .number("seed", static_cast<double>(opts.seed))
                   .string("workload", opts.workload)
                   .number("trace", opts.trace ? 1 : 0)
                   .number("seconds", opts.seconds)
                   .number("fail_ratio", fail_ratio)
                   .raw("metrics", metrics.str())
                   .raw("details", "{" + result.record + "}")
                   .str()
            << '\n';
  std::cout << JsonObject()
                   .raw("correct", correct ? "true" : "false")
                   .number("attempted", attempted)
                   .number("failed", static_cast<double>(result.failed))
                   .raw("metrics", metrics.str())
                   .str()
            << std::endl;
  return correct ? 0 : 1;
}
