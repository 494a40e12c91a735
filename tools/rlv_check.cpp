// rlv_check — command-line front end for the library.
//
// Usage:
//   rlv_check <system-file> --ltl "<formula>" [options]
//   rlv_check --petri-file <net.pn> --ltl "<formula>" [options]
//
// The system file uses the format of rlv/io/format.hpp and is interpreted
// as a transition system (prefix-closed behavior language; its ω-behaviors
// are the limit). With --petri-file the system is instead the budget-
// governed unfolding of a textual Petri net (rlv/petri/format.hpp):
//
//   --petri-file <f>       unfold the net's reachability graph and use it
//                          as the system (alphabet = transition labels)
//   --petri-max-states N   unfolding state cap (ResourceExhausted → exit 3)
//   --petri-timeout-ms N   unfolding wall-clock deadline (idem)
//   --net-hom              derive the abstraction homomorphism from the
//                          net's `hide:` annotation and run the Sections
//                          6-8 pipeline (like --hom, no extra file needed)
//
// Modes:
//
//   --check rl          relative liveness (default)
//   --check rs          relative safety
//   --check sat         classical satisfaction
//   --check fair        all strongly fair runs satisfy the formula?
//   --check fairweak    same under weak (justice) transition fairness
//   --check synth       Theorem 5.1 synthesis; prints the implementation
//   --check doom        monitor a trace (--trace "a b c"): report when the
//                       property stops being realizable (relative-liveness
//                       doom detection)
//   --check monitor     offline replay of the streaming monitor: compile
//                       the rlv::monitor automaton once, replay a trace
//                       (--trace or --trace-file, whitespace-separated
//                       actions) step by step, print each verdict change;
//                       with --certify the doomed-prefix certificate is
//                       validated by the independent checker
//   --hom <file>        run the abstraction pipeline (Sections 6-8): check
//                       the formula on the abstraction, certify simplicity,
//                       transfer by Theorem 8.2/8.3
//   --property-aut <f>  property given as a Büchi automaton file instead of
//                       --ltl, for rl|rs|sat|fair|fairweak (all but rl then
//                       use rank-based complementation — exponential, keep
//                       it small)
//   --explain           annotate witnesses with the state sets they
//                       traverse: the counterexample lassos of rs/sat/fair/
//                       fairweak and the violating prefix of rl
//   --certify           re-check the witness of a negative rl|rs|sat|fair|
//                       fairweak verdict with the independent certificate
//                       checker (rlv/cert/certificate.hpp; a fair run's
//                       fairness is not re-checked) and print the outcome;
//                       an INVALID certificate exits 2 — the verdict cannot
//                       be trusted
//   --dot               print the system in GraphViz format and exit
//
// Exit status: 0 = property verdict positive, 1 = negative, 2 = usage or
// input error (including a failed --certify), 3 = no sound conclusion
// (abstraction pipeline, non-simple).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "rlv/cert/certificate.hpp"
#include "rlv/core/check.hpp"
#include "rlv/core/fair_synthesis.hpp"
#include "rlv/core/monitor.hpp"
#include "rlv/core/preservation.hpp"
#include "rlv/core/relative.hpp"
#include "rlv/hom/image.hpp"
#include "rlv/io/format.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/lasso.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/petri/format.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"
#include "rlv/util/budget.hpp"

#include "cli_flags.hpp"

namespace {

using namespace rlv;

int usage() {
  std::fprintf(stderr,
               "usage: rlv_check <system-file> --ltl \"<formula>\"\n"
               "       rlv_check --petri-file <net.pn> --ltl \"<formula>\"\n"
               "       [--check rl|rs|sat|fair|fairweak|synth|doom|monitor]\n"
               "       [--trace \"<a b c>\"] [--trace-file <file>] [--hom <file>]\n"
               "       [--property-aut <file>] [--explain]\n"
               "       [--certify] [--dot]\n"
               "       [--net-hom] [--petri-max-states N] [--petri-timeout-ms N]\n"
               "  --explain annotates rl doomed prefixes and the lassos of\n"
               "            the other check kinds\n"
               "  --certify re-checks the witness of a negative check-kind\n"
               "            verdict with the independent certificate checker\n"
               "            (INVALID exits 2)\n"
               "  --petri-file unfolds a 1-safe net (rlv/petri/format.hpp) into\n"
               "            its reachability graph and checks that system;\n"
               "            --net-hom derives the abstraction from its hide\n"
               "            annotation, the budget flags bound the unfolding\n"
               "            (the timeout also covers the parse;\n"
               "            trip -> 'resource_exhausted', exit 3)\n");
  return 2;
}

/// Prints the validation outcome; returns the process exit code to use in
/// place of `verdict_code` (2 when the certificate failed).
int report_certificate(const cert::Validation& validation, int verdict_code) {
  if (!validation.valid) {
    std::printf("certificate: INVALID (%s)\n", validation.reason.c_str());
    return 2;
  }
  if (validation.checked) {
    std::printf("certificate: VALID\n");
  } else {
    std::printf("certificate: not checked (%s)\n", validation.reason.c_str());
  }
  return verdict_code;
}

/// How each check kind reports, indexed by CheckKind.
struct Presentation {
  const char* verdict;
  const char* positive;
  const char* negative;
  const char* lasso;  // what a counterexample lasso is called
};
constexpr Presentation kPresentation[] = {
    {"relative liveness", "HOLDS", "FAILS", "counterexample"},
    {"relative safety", "HOLDS", "FAILS", "counterexample"},
    {"satisfaction", "HOLDS", "FAILS", "violating behavior"},
    {"all strongly fair runs satisfy", "YES", "NO", "fair violating run"},
    {"all weakly fair runs satisfy", "YES", "NO", "fair violating run"},
};

/// A whitespace-separated trace of action names over `sigma`; an unknown
/// action throws (an input error, exit 2).
Word parse_trace(const std::string& text, const Alphabet& sigma) {
  Word trace;
  std::istringstream in(text);
  for (std::string action; in >> action;) {
    if (!sigma.contains(action)) {
      throw std::runtime_error("unknown action '" + action + "'");
    }
    trace.push_back(sigma.id(action));
  }
  return trace;
}

void print_lasso(const char* label, const Lasso& lasso,
                 const AlphabetRef& sigma) {
  std::printf("%s: %s (%s)^w\n", label, sigma->format(lasso.prefix).c_str(),
              sigma->format(lasso.period).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string system_path;
  std::string petri_path;
  std::string formula_text;
  std::string mode = "rl";
  std::string hom_path;
  std::string trace_text;
  std::string trace_file;
  std::string property_path;
  bool dot = false;
  bool explain = false;
  bool certify = false;
  bool net_hom = false;
  long petri_max_states = 0;
  long petri_timeout_ms = 0;

  int first_flag = 1;
  if (argv[1][0] != '-') {
    system_path = argv[1];
    first_flag = 2;
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ltl" && i + 1 < argc) {
      formula_text = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      mode = argv[++i];
    } else if (arg == "--hom" && i + 1 < argc) {
      hom_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_text = argv[++i];
    } else if (arg == "--trace-file" && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (arg == "--property-aut" && i + 1 < argc) {
      property_path = argv[++i];
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--certify") {
      certify = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--petri-file" && i + 1 < argc) {
      petri_path = argv[++i];
    } else if (arg == "--net-hom") {
      net_hom = true;
    } else if (arg == "--petri-max-states" && i + 1 < argc) {
      if (!cli::parse_number(argv[++i], petri_max_states, 1)) return usage();
    } else if (arg == "--petri-timeout-ms" && i + 1 < argc) {
      if (!cli::parse_number(argv[++i], petri_timeout_ms, 1,
                             cli::kMaxMillis)) {
        return usage();
      }
    } else {
      return usage();
    }
  }
  // Exactly one system source: a transition-system file or a Petri net.
  if (system_path.empty() == petri_path.empty()) return usage();
  if (net_hom && petri_path.empty()) return usage();

  try {
    petri::NetFile netfile;
    const Nfa system = [&]() -> Nfa {
      if (petri_path.empty()) return parse_system(read_file(system_path));
      // One budget governs the parse and the unfolding: the deadline runs
      // from before the parse, and the state cap bounds the unfolded states
      // on top of the places and transitions the parse charged.
      Budget budget;
      const bool governed = petri_max_states > 0 || petri_timeout_ms > 0;
      if (petri_timeout_ms > 0) {
        budget.set_deadline_in(std::chrono::milliseconds(petri_timeout_ms));
      }
      netfile = petri::parse_net(read_file(petri_path),
                                 governed ? &budget : nullptr);
      if (petri_max_states > 0) {
        budget.set_max_states(budget.states_used() +
                              static_cast<std::uint64_t>(petri_max_states));
      }
      ReachabilityGraph graph = build_reachability_graph(
          netfile.net, {}, governed ? &budget : nullptr);
      std::printf("petri unfold: net '%s', %zu places -> %zu states, "
                  "%zu deadlocks%s%s\n",
                  netfile.name.c_str(), graph.num_places,
                  graph.system.num_states(), graph.deadlocks.size(),
                  graph.one_safe ? "" : " (not 1-safe)",
                  graph.complete ? "" : " (truncated)");
      return std::move(graph.system);
    }();
    if (dot) {
      std::fputs(to_dot(system).c_str(), stdout);
      return 0;
    }

    // The property: a Büchi automaton file (over the same action names) or
    // a formula. Only the five check kinds take an automaton.
    std::optional<Buchi> automaton;
    std::optional<Formula> formula;
    if (!property_path.empty()) {
      const Nfa raw = parse_system(read_file(property_path));
      automaton = Buchi::from_structure(remap_alphabet(raw, system.alphabet()));
    } else if (!formula_text.empty()) {
      formula = parse_ltl(formula_text);
    }
    const std::optional<CheckKind> kind = parse_check_kind(mode);
    const bool pipeline = !hom_path.empty() || net_hom;
    if (!formula && !(automaton && kind && !pipeline)) return usage();

    if (pipeline) {
      if (net_hom && netfile.hidden.empty()) {
        std::fprintf(stderr,
                     "error: --net-hom needs a net with a hide annotation\n");
        return 2;
      }
      // Theorems 8.2/8.3 need h(L) free of maximal words; a deadlocked
      // unfolding violates that, so #-extend it before the pipeline (the
      // hidden labels and formula atoms are unaffected by the pad letter).
      Nfa pipeline_system = system;
      if (net_hom && has_maximal_words(system)) {
        pipeline_system = extend_maximal_words(system);
        std::printf("deadlocks #-extended for the abstraction pipeline\n");
      }
      const Homomorphism h =
          net_hom ? petri::derive_abstraction(pipeline_system.alphabet(),
                                              netfile.hidden)
                  : parse_homomorphism(read_file(hom_path),
                                       pipeline_system.alphabet());
      const AbstractionVerdict verdict =
          verify_via_abstraction(pipeline_system, h, to_pnf(*formula));
      std::printf("abstract states: %zu (concrete: %zu)\n",
                  verdict.abstract_states, verdict.concrete_states);
      std::printf("abstract relative liveness: %s\n",
                  verdict.abstract_holds ? "holds" : "fails");
      std::printf("homomorphism simple: %s\n",
                  !verdict.simplicity_checked
                      ? "not decided (abstract check failed; Theorem 8.3 "
                        "needs no simplicity)"
                      : verdict.simplicity.simple ? "yes" : "no");
      std::printf("hidden divergence: %s\n",
                  verdict.hidden_divergence ? "yes" : "no");
      if (verdict.image_has_maximal_words) {
        std::printf("warning: h(L) has maximal words; Theorems 8.2/8.3 side "
                    "condition violated\n");
      }
      if (verdict.concrete_holds) {
        std::printf("conclusion: concrete relative liveness %s\n",
                    *verdict.concrete_holds ? "HOLDS" : "FAILS");
        return *verdict.concrete_holds ? 0 : 1;
      }
      if (!verdict.abstract_holds && verdict.hidden_divergence) {
        std::printf("conclusion: none (abstract failure, but the system can "
                    "diverge on hidden letters)\n");
      } else {
        std::printf("conclusion: none (certification failed)\n");
      }
      return 3;
    }

    const Buchi behaviors = limit_of_prefix_closed(system);
    const Labeling lambda = Labeling::canonical(system.alphabet());

    if (kind) {
      CheckOperands operands =
          automaton ? CheckOperands::of_automaton(behaviors, *automaton)
                    : CheckOperands::of_formula(behaviors, *formula, lambda);
      const CheckResult res = check(*kind, operands);
      const Presentation& show = kPresentation[static_cast<int>(*kind)];
      std::printf("%s: %s\n", show.verdict,
                  res.holds ? show.positive : show.negative);
      if (res.violating_prefix) {
        std::printf("doomed prefix: %s\n",
                    system.alphabet()->format(*res.violating_prefix).c_str());
        if (explain) {
          std::fputs(explain_word(system, *res.violating_prefix).c_str(),
                     stdout);
        }
      }
      if (res.counterexample) {
        print_lasso(show.lasso, *res.counterexample, system.alphabet());
        if (explain) {
          std::fputs(explain_lasso(system, res.counterexample->prefix,
                                   res.counterexample->period)
                         .c_str(),
                     stdout);
        }
      }
      int code = res.holds ? 0 : 1;
      if (certify) {
        const cert::Property property =
            automaton ? cert::Property(*automaton)
                      : cert::Property(*formula, lambda,
                                       operands.built_property());
        code = report_certificate(
            cert::validate(*kind, res, behaviors, property), code);
      }
      return code;
    }
    if (mode == "doom" && trace_text.empty()) {
      // No trace: search for the globally shortest doomed prefix.
      DoomMonitor monitor(behaviors, *formula, lambda);
      const auto doom = monitor.shortest_doomed_prefix();
      if (!doom) {
        std::printf("no doomed prefix exists: the property is a relative "
                    "liveness property\n");
        return 0;
      }
      std::printf("shortest doomed prefix (%zu steps): %s\n", doom->size(),
                  system.alphabet()->format(*doom).c_str());
      if (explain) {
        std::fputs(explain_word(system, *doom).c_str(), stdout);
      }
      return 1;
    }
    if (mode == "doom") {
      DoomMonitor monitor(behaviors, *formula, lambda);
      const Word trace = parse_trace(trace_text, *system.alphabet());
      std::size_t first_doom = 0;
      const MonitorVerdict verdict = monitor.run(trace, &first_doom);
      switch (verdict) {
        case MonitorVerdict::kSatisfiable:
          std::printf("trace ok: the property is still realizable\n");
          return 0;
        case MonitorVerdict::kDoomed:
          std::printf("DOOMED at step %zu (action '%s'): no continuation "
                      "can satisfy the property\n",
                      first_doom,
                      system.alphabet()->name(trace[first_doom]).c_str());
          return 1;
        case MonitorVerdict::kLeftSystem:
          std::printf("trace left the system at step %zu\n", first_doom);
          return 1;
      }
    }
    if (mode == "monitor") {
      // Offline replay through the compiled streaming monitor — the same
      // kernel `rlvd --serve` steps per session, exercised from a file.
      if (trace_text.empty() && trace_file.empty()) {
        std::fprintf(stderr, "error: --check monitor needs --trace or "
                             "--trace-file\n");
        return 2;
      }
      if (!trace_file.empty()) trace_text = read_file(trace_file);
      const monitor::MonitorAutomaton aut(behaviors, *formula, lambda,
                                          certify);
      const Word trace = parse_trace(trace_text, *system.alphabet());
      std::uint32_t state = aut.initial();
      MonitorVerdict verdict = aut.verdict(state);
      std::optional<std::size_t> transition;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        state = aut.step(state, trace[i]);
        const MonitorVerdict after = aut.verdict(state);
        if (verdict == MonitorVerdict::kSatisfiable &&
            after != MonitorVerdict::kSatisfiable) {
          transition = i;
        }
        verdict = after;
        std::printf("  %3zu %-12s -> %s\n", i,
                    system.alphabet()->name(trace[i]).c_str(),
                    std::string(monitor::verdict_name(after)).c_str());
      }
      if (verdict == MonitorVerdict::kSatisfiable) {
        std::printf("trace ok: the property is still realizable after %zu "
                    "events\n", trace.size());
        return 0;
      }
      if (transition && aut.verdict(state) == MonitorVerdict::kDoomed) {
        const Word witness = aut.witness(state);
        std::printf("DOOMED at step %zu; canonical witness for this state: "
                    "%s\n", *transition,
                    system.alphabet()->format(witness).c_str());
        if (certify) {
          const Buchi property_buchi = translate_ltl(*formula, lambda);
          const cert::Validation validation =
              cert::check_doomed_prefix(witness, behaviors, property_buchi);
          std::printf("certificate: %s\n",
                      validation.valid && validation.checked ? "VALID"
                                                             : "INVALID");
          if (!validation.valid) {
            std::fprintf(stderr, "error: %s\n", validation.reason.c_str());
            return 2;
          }
        }
      } else if (transition) {
        std::printf("trace left the system at step %zu\n", *transition);
      }
      return 1;
    }
    if (mode == "synth") {
      const auto rl = relative_liveness(behaviors, *formula, lambda);
      if (!rl.holds) {
        std::printf("not a relative liveness property; Theorem 5.1 does not "
                    "apply\n");
        return 1;
      }
      const FairImplementation impl =
          synthesize_fair_implementation(behaviors, *formula, lambda);
      std::printf("# synthesized implementation (%zu states); all strongly "
                  "fair runs satisfy the property\n",
                  impl.system.num_states());
      std::fputs(serialize_system(impl.system.structure()).c_str(), stdout);
      return 0;
    }
    return usage();
  } catch (const ResourceExhausted& e) {
    // Distinct, machine-checkable outcome: the budget tripped, the answer
    // is "don't know", never a wrong boolean.
    std::printf("resource_exhausted in stage %s (%s)\n",
                std::string(stage_name(e.stage())).c_str(),
                e.kind() == ResourceExhausted::Kind::kDeadline
                    ? "deadline"
                    : "state cap");
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
