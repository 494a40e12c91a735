// rlv_fuzz — differential fuzz harness for the decision kernels.
//
// Drives rlv::gen random transition systems and PLTL formulas through the
// one decision pipeline (rlv/core/check.hpp) and cross-checks the
// following. Every fourth instance also draws a random Büchi system with
// non-accepting states (not limit-closed, so the Lemma 4.4 search keeps L_ω
// as an operand) and runs the same checks on it.
//
//   * kernel vs oracle   — relative liveness / relative safety /
//                          satisfaction against the brute-force
//                          explicit-product decider (rlv/cert/oracle.hpp);
//   * subset reference   — the Lemma 4.3 check with BFS-shortest subset
//                          inclusion against check()'s antichain one;
//   * Thm 4.7 identity   — satisfies ⟺ relative liveness ∧ relative safety;
//   * certificates       — every negative verdict's witness is re-checked
//                          with the independent validator
//                          (rlv/cert/certificate.hpp);
//   * translation        — the automata for f and ¬f against eval_ltl on
//                          random lassos. The oracle builds its automata
//                          with the same translator as the kernels, so only
//                          this leg can catch a translation bug;
//   * engine             — the instance as query text through one certifying
//                          Engine with 4-entry caches, all five check kinds,
//                          each cold and then cached: rl/rs/sat against the
//                          oracle, fair/fairweak against
//                          check_fair_satisfaction. Every fourth instance
//                          also submits a second text of the same structure,
//                          plus an automaton-flavor rl query on it.
//
// Any mismatch prints a self-contained repro (seed, instance number, system
// text, formula) and exits 1. Deterministic for a fixed seed.
//
// Options:
//   --parsers      fuzz the wire readers instead (tools/fuzz_parsers.cpp);
//                  each instance mutates every seed line once
//   --seed N       base seed (default 1)
//   --instances N  number of random instances (default 1000)
//   --states N     max system states (default 6, min 2)
//   --alphabet N   max alphabet size (default 3, min 2)
//   --depth N      max formula operator depth (default 3)
//   --verbose      print a line per instance
//
// Exit status: 0 = all instances agree, 1 = mismatch found, 2 = bad usage.

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "rlv/cert/certificate.hpp"
#include "rlv/cert/oracle.hpp"
#include "rlv/core/check.hpp"
#include "rlv/core/preservation.hpp"
#include "rlv/core/relative.hpp"
#include "rlv/engine/engine.hpp"
#include "rlv/fair/fair_check.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/hom/image.hpp"
#include "rlv/hom/simplicity.hpp"
#include "rlv/io/format.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/ltl/eval.hpp"
#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/lasso.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/petri/format.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"
#include "rlv/util/budget.hpp"
#include "rlv/util/rng.hpp"

#include "cli_flags.hpp"
#include "fuzz_parsers.hpp"

namespace {

using namespace rlv;

int usage() {
  std::fprintf(stderr,
               "usage: rlv_fuzz [--petri|--parsers] [--seed N] [--instances N]"
               " [--states N] [--alphabet N] [--depth N] [--verbose]\n");
  return 2;
}

struct Repro {
  std::uint64_t seed;
  std::size_t instance;
  const Nfa* system;
  std::string formula;
};

void print_repro(const Repro& r, const std::string& what) {
  std::fprintf(stderr, "rlv_fuzz: MISMATCH at instance %zu (seed %llu): %s\n",
               r.instance, static_cast<unsigned long long>(r.seed),
               what.c_str());
  std::fprintf(stderr, "formula: %s\nsystem:\n%s", r.formula.c_str(),
               serialize_system(*r.system).c_str());
}

/// The translation leg: membership of random lassos in translate_ltl(f) and
/// translate_ltl_negated(f) against eval_ltl, which does not translate.
/// Returns a description of the first disagreement, or an empty string;
/// counts the lassos checked.
std::string check_translation(Rng& rng, Formula f, const Labeling& lambda,
                              std::size_t& lassos) {
  const Buchi positive = translate_ltl(f, lambda);
  const Buchi negated = translate_ltl_negated(f, lambda);
  const AlphabetRef& sigma = lambda.alphabet();
  for (int i = 0; i < 8; ++i) {
    const auto [u, v] = random_lasso(rng, sigma, 4, 4);
    const bool holds = eval_ltl(f, u, v, lambda);
    const char* wrong = accepts_lasso(positive, u, v) != holds ? "f"
                        : accepts_lasso(negated, u, v) == holds ? "!f"
                                                                : nullptr;
    if (wrong) {
      return std::string("translation of ") + wrong + " vs eval_ltl on u=" +
             sigma->format(u) + " v=" + sigma->format(v) + " (eval: " +
             (holds ? "f holds" : "f fails") + ")";
    }
    ++lassos;
  }
  return {};
}

constexpr CheckKind kKinds[] = {
    CheckKind::kRelativeLiveness, CheckKind::kRelativeSafety,
    CheckKind::kSatisfaction, CheckKind::kFairStrong, CheckKind::kFairWeak};

/// Verdicts indexed by CheckKind.
using Verdicts = std::array<bool, std::size(kKinds)>;
constexpr std::size_t at(CheckKind kind) {
  return static_cast<std::size_t>(kind);
}

std::string disagreement(CheckKind kind, const char* who, bool holds,
                         const char* reference, bool expected) {
  return std::string(check_kind_name(kind)) + ": " + who + " says " +
         (holds ? "holds" : "fails") + ", " + reference + " says " +
         (expected ? "holds" : "fails");
}

/// The leg every instance runs: rl, rs and sat through check(), against the
/// brute-force oracle (when `oracle` is set), against each other (Thm 4.7)
/// and against the subset-inclusion rl reference, with every negative
/// verdict's witness re-checked by cert::validate. Returns the first
/// disagreement, or an empty string; fills the rl/rs/sat slots of
/// `verdicts` and counts the certificates checked.
std::string differential(const Buchi& system, Formula f,
                         const Labeling& lambda, bool oracle,
                         Verdicts& verdicts, std::size_t& certificates) {
  const auto certify = [&](CheckKind kind,
                           const CheckResult& result) -> std::string {
    const cert::Validation v =
        cert::validate(kind, result, system, {f, lambda});
    if (v.checked) ++certificates;
    if (v.valid) return {};
    return std::string(check_kind_name(kind)) + " certificate: " + v.reason;
  };
  CheckOperands operands = CheckOperands::of_formula(system, f, lambda);
  for (const CheckKind kind : {CheckKind::kRelativeLiveness,
                               CheckKind::kRelativeSafety,
                               CheckKind::kSatisfaction}) {
    const CheckResult result = check(kind, operands);
    verdicts[at(kind)] = result.holds;
    if (std::string bad = certify(kind, result); !bad.empty()) return bad;
  }
  const bool rl = verdicts[at(CheckKind::kRelativeLiveness)];
  const bool rs = verdicts[at(CheckKind::kRelativeSafety)];
  const bool sat = verdicts[at(CheckKind::kSatisfaction)];
  if (oracle) {
    const bool expected[] = {  // rl, rs, sat: the first kinds in kKinds
        cert::oracle_relative_liveness(system, f, lambda),
        cert::oracle_relative_safety(system, f, lambda),
        cert::oracle_satisfies(system, f, lambda)};
    for (std::size_t k = 0; k < std::size(expected); ++k) {
      if (verdicts[k] != expected[k]) {
        return disagreement(kKinds[k], "kernel", verdicts[k], "oracle",
                            expected[k]);
      }
    }
  }
  // Theorem 4.7: satisfaction ⟺ relative liveness ∧ relative safety.
  if (sat != (rl && rs)) return "Thm 4.7 identity violated: sat != (rl && rs)";
  const InclusionResult subset = check_inclusion(
      operands.prefixes(),
      prefix_of_intersection(system, operands.property()),
      InclusionAlgorithm::kSubset);
  if (subset.included != rl) {
    return disagreement(CheckKind::kRelativeLiveness, "antichain", rl,
                        "subset", subset.included);
  }
  return certify(CheckKind::kRelativeLiveness,
                 {subset.included, subset.counterexample, std::nullopt});
}

/// The engine leg: the instance as query text, every check kind run twice
/// through `engine` — cold, then cached — against the rl/rs/sat verdicts in
/// `expected` and against check_fair_satisfaction. With `variant`, a second
/// text of the same structure follows: its formula queries hit the
/// structure-keyed verdicts, and an automaton-flavor rl query misses and
/// must re-resolve its property onto the alphabet of the behaviors automaton
/// cached from the first text. Returns the first disagreement, or an empty
/// string; counts the verdicts checked.
std::string check_engine(Engine& engine, const Nfa& system,
                         const Buchi& behaviors, Formula f,
                         const Labeling& lambda, Verdicts expected,
                         bool variant, std::size_t& verdicts) {
  expected[at(CheckKind::kFairStrong)] =
      check_fair_satisfaction(behaviors, f, lambda,
                              FairnessKind::kStrongTransition)
          .all_fair_runs_satisfy;
  expected[at(CheckKind::kFairWeak)] =
      check_fair_satisfaction(behaviors, f, lambda,
                              FairnessKind::kWeakTransition)
          .all_fair_runs_satisfy;
  const std::string text = serialize_system(system);
  std::vector<Query> queries;
  for (const std::string& system_text :
       variant ? std::vector<std::string>{text, "# same structure\n" + text}
               : std::vector<std::string>{text}) {
    for (const CheckKind kind : kKinds) {
      queries.push_back({system_text, f.to_string(), kind});
    }
  }
  if (variant) {
    Query automaton{queries.back().system, "", CheckKind::kRelativeLiveness};
    automaton.property_automaton = serialize_buchi(translate_ltl(f, lambda));
    queries.push_back(std::move(automaton));
  }
  for (const Query& query : queries) {
    const Verdict cold = engine.run_one(query);
    const Verdict cached = engine.run_one(query);
    const std::string kind(check_kind_name(query.kind));
    if (!cold.ok() || !cached.ok()) {
      return "engine " + kind + ": " + (cold.ok() ? cached : cold).error;
    }
    const bool want = expected[at(query.kind)];
    if (cold.holds != want) {
      return disagreement(query.kind, "engine", cold.holds, "reference", want);
    }
    if (cached.holds != cold.holds ||
        cached.violating_prefix != cold.violating_prefix ||
        cached.counterexample != cold.counterexample) {
      return "engine " + kind + ": the cached verdict differs";
    }
    verdicts += 2;
  }
  return {};
}

/// The non-limit-closed leg: a random Büchi system with at least one
/// non-accepting state, run through the differential leg. Returns false
/// after printing a repro on a mismatch.
bool check_general_system(Rng& rng, std::uint64_t seed, std::size_t instance,
                          std::size_t max_states, std::size_t max_alphabet,
                          std::size_t max_depth, std::size_t& certificates) {
  const AlphabetRef sigma =
      random_alphabet(2 + rng.next_below(max_alphabet - 1));
  Buchi system = random_buchi(rng, 2 + rng.next_below(max_states - 1), sigma);
  system.set_accepting(static_cast<State>(rng.next_below(system.num_states())),
                       false);
  std::vector<std::string> atoms;
  for (Symbol s = 0; s < sigma->size(); ++s) atoms.push_back(sigma->name(s));
  const Formula formula = random_formula(rng, atoms, max_depth);
  const Labeling lambda = Labeling::canonical(sigma);

  std::string what;
  try {
    Verdicts verdicts{};
    what = differential(system, formula, lambda, /*oracle=*/true, verdicts,
                        certificates);
  } catch (const std::exception& e) {
    what = std::string("exception: ") + e.what();
  }
  if (what.empty()) return true;
  std::fprintf(stderr,
               "rlv_fuzz: MISMATCH at instance %zu (seed %llu), "
               "non-limit-closed system: %s\nformula: %s\nsystem:\n%s",
               instance, static_cast<unsigned long long>(seed), what.c_str(),
               formula.to_string().c_str(), serialize_buchi(system).c_str());
  return false;
}

// ---------------------------------------------------------------------------
// --petri: differential fuzzing over unfolded 1-safe net scenarios.
//
// Per instance: draw a scenario (canonical family or random safe net),
// unfold it, and cross-check (a) the textual format round-trip, (b) every
// kernel configuration against the brute-force oracle on the unfolded
// behavior automaton plus the Thm 4.7 identity and certificates, and
// (c) the preservation identities of Thm 8.2 / Cor 8.4 / Thm 8.3 on the
// abstraction derived from the scenario's hide annotation — with the
// concrete transferred check itself cross-checked against the oracle on
// small unfoldings.

/// The acceptance gate for budget-governed unfolding: philosophers(6) must
/// unfold inside 5 s / 200k states, and a tight state cap must surface as
/// ResourceExhausted in stage petri_unfold — never a crash or OOM.
int petri_budget_probe() {
  const PetriNet net = petri::philosophers_net(6).net;
  Budget generous;
  generous.set_deadline_in(std::chrono::milliseconds(5000));
  generous.set_max_states(200000);
  std::size_t states = 0;
  try {
    const ReachabilityGraph graph =
        build_reachability_graph(net, {}, &generous);
    if (!graph.complete) {
      std::fprintf(stderr, "rlv_fuzz: philosophers(6) unfold truncated\n");
      return 1;
    }
    states = graph.system.num_states();
  } catch (const ResourceExhausted& e) {
    std::fprintf(stderr,
                 "rlv_fuzz: philosophers(6) blew the 5s/200k budget: %s\n",
                 e.what());
    return 1;
  }
  Budget tight;
  tight.set_max_states(states / 2);
  try {
    (void)build_reachability_graph(net, {}, &tight);
    std::fprintf(stderr,
                 "rlv_fuzz: tight unfold budget did not trip at %zu states\n",
                 states / 2);
    return 1;
  } catch (const ResourceExhausted& e) {
    if (e.stage() != Stage::kPetriUnfold) {
      std::fprintf(stderr, "rlv_fuzz: budget tripped in stage %s, expected "
                           "petri_unfold\n",
                   std::string(stage_name(e.stage())).c_str());
      return 1;
    }
  }
  std::printf(
      "rlv_fuzz --petri: philosophers(6) unfolds to %zu states within "
      "5s/200k; tight cap reports resource_exhausted in petri_unfold\n",
      states);
  return 0;
}

petri::NetFile figure1_scenario() {
  petri::NetFile file;
  file.name = "figure1";
  file.net = figure1_net();
  file.hidden = {"lock", "free", "yes", "no"};
  return file;
}

int run_petri_fuzz(std::uint64_t seed, std::size_t instances, bool verbose) {
  if (const int rc = petri_budget_probe(); rc != 0) return rc;

  Rng rng(seed);
  std::size_t oracle_checked = 0;
  std::size_t preservation_checked = 0;
  std::size_t preservation_oracle = 0;
  std::size_t simple_count = 0;
  std::size_t divergent_count = 0;
  std::size_t certificates = 0;

  for (std::size_t instance = 0; instance < instances; ++instance) {
    petri::NetFile file;
    switch (rng.next_below(6)) {
      case 0:
        file = petri::philosophers_net(2);
        break;
      case 1:
        file = petri::bounded_buffer_net(1 + rng.next_below(4));
        break;
      case 2:
        file = petri::ring_workflow_net(2 + rng.next_below(3));
        break;
      case 3:
        file = petri::flight_workflow_net();
        break;
      case 4:
        file = figure1_scenario();
        break;
      default:
        file = random_safe_net(rng, 3, 4);
        break;
    }

    ReachabilityOptions options;
    options.max_states = 4096;
    const ReachabilityGraph graph = build_reachability_graph(file.net, options);
    const AlphabetRef sigma = graph.system.alphabet();

    // Formula over a couple of the net's labels.
    std::vector<std::string> atoms;
    for (Symbol s = 0; s < sigma->size(); ++s) atoms.push_back(sigma->name(s));
    const Formula formula = random_formula(rng, atoms, 2);
    const Labeling lambda = Labeling::canonical(sigma);
    const Buchi behaviors = limit_of_prefix_closed(graph.system);

    const Repro repro{seed, instance, &graph.system, formula.to_string()};
    const auto bail = [&](const std::string& what) {
      print_repro(repro, what);
      std::fprintf(stderr, "net (%s):\n%s", file.name.c_str(),
                   petri::serialize_net(file).c_str());
      return 1;
    };

    try {
      if (!graph.complete) return bail("scenario unfold truncated at 4096");

      // Format round-trip: parse(serialize(net)) unfolds identically.
      const petri::NetFile reparsed =
          petri::parse_net(petri::serialize_net(file));
      const ReachabilityGraph regraph =
          build_reachability_graph(reparsed.net, options);
      if (regraph.system.num_states() != graph.system.num_states() ||
          regraph.deadlocks.size() != graph.deadlocks.size() ||
          reparsed.hidden != file.hidden) {
        return bail("format round-trip changed the unfolding");
      }

      // Kernels, certificates, and the brute-force oracle on small
      // unfoldings (it is exponential).
      const bool oracle = graph.system.num_states() <= 24;
      Verdicts verdicts{};
      const std::string what = differential(behaviors, formula, lambda,
                                            oracle, verdicts, certificates);
      if (!what.empty()) return bail(what);
      if (oracle) ++oracle_checked;

      // Preservation identities on the derived abstraction.
      if (!file.hidden.empty()) {
        // Thm 8.2/8.3 talk about h(L) without maximal words; deadlocking
        // scenarios get the #-extension first (pad stays visible).
        const Nfa ext = has_maximal_words(graph.system)
                            ? extend_maximal_words(graph.system)
                            : graph.system;
        const Homomorphism h =
            petri::derive_abstraction(ext.alphabet(), file.hidden);
        const Nfa abstracted = image_nfa(ext, h);
        if (abstracted.num_states() != 0 && h.target()->size() != 0 &&
            !has_maximal_words(abstracted)) {
          std::vector<std::string> kept;
          for (Symbol s = 0; s < h.target()->size(); ++s) {
            kept.push_back(h.target()->name(s));
          }
          const Formula eta = to_pnf(random_formula(rng, kept, 2));
          const AbstractionVerdict verdict =
              verify_via_abstraction(ext, h, eta);
          const bool concrete_rl = concrete_relative_liveness(ext, h, eta);
          // The pipeline skips the simplicity decision when the abstract
          // check fails (Thm 8.3 needs none); recompute it here so the
          // Cor 8.4 equality leg keeps full coverage.
          const bool simple = verdict.simplicity_checked
                                  ? verdict.simplicity.simple
                                  : check_simplicity(ext, h).simple;
          if (simple) ++simple_count;
          if (verdict.hidden_divergence) ++divergent_count;
          // Thm 8.2 (positive transfer): sound even under divergence.
          if (simple && !verdict.image_has_maximal_words &&
              verdict.abstract_holds && !concrete_rl) {
            return bail("Thm 8.2 violated on " + eta.to_string() +
                        ": simple h, abstract holds, concrete fails");
          }
          // Thm 8.3 / Cor 8.4 need divergence-freedom (an all-ε tail can
          // rescue R̄(η) concretely after the abstraction refutes η).
          if (!verdict.hidden_divergence) {
            if (simple && verdict.abstract_holds != concrete_rl) {
              return bail("Cor 8.4 violated on " + eta.to_string() +
                          ": simple h but abstract != concrete");
            }
            if (concrete_rl && !verdict.abstract_holds) {
              return bail("Thm 8.3 violated on " + eta.to_string() +
                          ": concrete holds but abstract fails");
            }
          }
          if (verdict.concrete_holds.has_value() &&
              *verdict.concrete_holds != concrete_rl) {
            return bail("pipeline conclusion disagrees with direct concrete "
                        "check on " +
                        eta.to_string());
          }
          ++preservation_checked;

          // Oracle cross-check of the transferred concrete verdict.
          if (ext.num_states() <= 24) {
            const bool orl = cert::oracle_relative_liveness(
                limit_of_prefix_closed(ext), verdict.transformed,
                hom_labeling(h));
            if (orl != concrete_rl) {
              return bail("preservation: concrete kernel vs oracle on R(" +
                          eta.to_string() + ")");
            }
            ++preservation_oracle;
          }
        }
      }
    } catch (const std::exception& e) {
      return bail(std::string("exception: ") + e.what());
    }

    if (verbose) {
      std::printf("instance %zu ok: %s, %zu states%s\n", instance,
                  file.name.c_str(),
                  static_cast<std::size_t>(graph.system.num_states()),
                  graph.one_safe ? "" : " (count rows)");
    }
  }

  std::printf(
      "rlv_fuzz --petri: %zu net instances ok (seed %llu): %zu oracle-checked,"
      " %zu preservation identities (%zu simple, %zu divergent,"
      " %zu oracle-confirmed), %zu certificates validated, 0 mismatches\n",
      instances, static_cast<unsigned long long>(seed), oracle_checked,
      preservation_checked, simple_count, divergent_count, preservation_oracle,
      certificates);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::size_t instances = 1000;
  std::size_t max_states = 6;
  std::size_t max_alphabet = 3;
  std::size_t max_depth = 3;
  bool verbose = false;
  bool petri = false;
  bool parsers = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto number = [&](auto& out, std::uint64_t min) {
      return i + 1 < argc && cli::parse_number(argv[++i], out, min);
    };
    if (arg == "--seed") {
      if (!number(seed, 0)) return usage();
    } else if (arg == "--instances") {
      if (!number(instances, 1)) return usage();
    } else if (arg == "--states") {
      if (!number(max_states, 2)) return usage();
    } else if (arg == "--alphabet") {
      if (!number(max_alphabet, 2)) return usage();
    } else if (arg == "--depth") {
      if (!number(max_depth, 1)) return usage();
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--petri") {
      petri = true;
    } else if (arg == "--parsers") {
      parsers = true;
    } else {
      return usage();
    }
  }

  if (petri && parsers) return usage();
  if (petri) return run_petri_fuzz(seed, instances, verbose);
  if (parsers) return run_parser_fuzz(seed, instances, verbose);

  Rng rng(seed);
  // The non-limit-closed leg draws from its own stream, so the
  // transition-system instances of a seed do not depend on it.
  Rng general_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  Rng lasso_rng(seed ^ 0xc2b2ae3d27d4eb4fULL);  // the translation leg's
  std::size_t certificates = 0;
  std::size_t lassos = 0;
  std::size_t negatives = 0;
  std::size_t general = 0;
  std::size_t engine_verdicts = 0;
  // One engine for the whole run, its caches small enough that the
  // behaviors, prefixes and verdicts caches evict independently.
  Engine engine(EngineOptions{.cache_capacity = 4, .certify_verdicts = true});

  for (std::size_t instance = 0; instance < instances; ++instance) {
    const std::size_t sigma_size = 2 + rng.next_below(max_alphabet - 1);
    const AlphabetRef sigma = random_alphabet(sigma_size);
    const std::size_t states = 2 + rng.next_below(max_states - 1);
    const Nfa system = random_transition_system(rng, states, sigma);
    std::vector<std::string> atoms;
    for (Symbol s = 0; s < sigma->size(); ++s) atoms.push_back(sigma->name(s));
    const Formula formula = random_formula(rng, atoms, max_depth);
    const Labeling lambda = Labeling::canonical(sigma);
    const Buchi behaviors = limit_of_prefix_closed(system);

    const Repro repro{seed, instance, &system, formula.to_string()};
    const auto bail = [&](const std::string& what) {
      print_repro(repro, what);
      return 1;
    };

    try {
      Verdicts expected{};
      std::string what = differential(behaviors, formula, lambda,
                                       /*oracle=*/true, expected, certificates);
      if (!what.empty()) return bail(what);
      if (!expected[at(CheckKind::kSatisfaction)]) ++negatives;

      what = check_translation(lasso_rng, formula, lambda, lassos);
      if (!what.empty()) return bail(what);

      what = check_engine(engine, system, behaviors, formula, lambda,
                          expected, instance % 4 == 0, engine_verdicts);
      if (!what.empty()) return bail(what);
    } catch (const std::exception& e) {
      return bail(std::string("exception: ") + e.what());
    }

    if (instance % 4 == 0) {
      if (!check_general_system(general_rng, seed, instance, max_states,
                                max_alphabet, max_depth, certificates)) {
        return 1;
      }
      ++general;
    }

    if (verbose) {
      std::printf("instance %zu ok (%zu states, |Sigma|=%zu)\n", instance,
                  states, sigma_size);
    }
  }

  std::printf(
      "rlv_fuzz: %zu instances ok (seed %llu, %zu with a non-limit-closed "
      "system): %zu sat violations, %zu certificates validated, "
      "%zu translation lassos checked against eval_ltl, %zu engine verdicts, "
      "0 mismatches\n",
      instances, static_cast<unsigned long long>(seed), general, negatives,
      certificates, lassos, engine_verdicts);
  return 0;
}
