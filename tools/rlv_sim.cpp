// rlv_sim — execute a transition system with the strongly fair scheduler
// while the doom monitor watches the trace.
//
// Usage:
//   rlv_sim <system-file> --ltl "<formula>" [--steps N] [--seed K]
//
// Prints the fair execution and the monitor's verdict stream; summarizes
// how often the property's "goal atoms" occurred. Exit: 0 if the run ends
// kSatisfiable, 1 otherwise.

#include <cstdio>
#include <string>

#include "rlv/core/monitor.hpp"
#include "rlv/fair/simulate.hpp"
#include "rlv/io/format.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/omega/limit.hpp"

#include "cli_flags.hpp"

namespace {

using namespace rlv;

int usage() {
  std::fprintf(stderr,
               "usage: rlv_sim <system-file> --ltl \"<formula>\" "
               "[--steps N] [--seed K]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string formula_text;
  SimulationOptions options;
  options.steps = 40;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ltl" && i + 1 < argc) {
      formula_text = argv[++i];
    } else if (arg == "--steps" && i + 1 < argc) {
      if (!cli::parse_number(argv[++i], options.steps)) return usage();
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!cli::parse_number(argv[++i], options.seed)) return usage();
    } else {
      return usage();
    }
  }
  if (formula_text.empty()) return usage();

  try {
    const Nfa system = parse_system(read_file(argv[1]));
    const Formula formula = parse_ltl(formula_text);
    const Buchi behaviors = limit_of_prefix_closed(system);
    const Labeling lambda = Labeling::canonical(system.alphabet());

    DoomMonitor monitor(behaviors, formula, lambda);
    const Word run = simulate_fair_run(system, options);

    std::printf("# fair execution of %s under watch of: %s\n", argv[1],
                formula.to_string().c_str());
    for (std::size_t i = 0; i < run.size(); ++i) {
      const MonitorVerdict verdict = monitor.step(run[i]);
      const char* tag = verdict == MonitorVerdict::kSatisfiable ? "ok"
                        : verdict == MonitorVerdict::kDoomed    ? "DOOMED"
                                                                : "left";
      std::printf("%4zu  %-16s %s\n", i, system.alphabet()->name(run[i]).c_str(),
                  tag);
      if (verdict != MonitorVerdict::kSatisfiable) break;
    }

    // Occurrence statistics for the formula's atoms.
    std::printf("\natom occurrences in the run:\n");
    for (const std::string& atom : formula.atoms()) {
      if (!system.alphabet()->contains(atom)) continue;
      const Symbol s = system.alphabet()->id(atom);
      std::size_t count = 0;
      for (const Symbol x : run) count += (x == s) ? 1 : 0;
      std::printf("  %-16s %zu\n", atom.c_str(), count);
    }
    return monitor.verdict() == MonitorVerdict::kSatisfiable ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
