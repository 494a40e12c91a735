#include "inputs.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "rlv/cert/certificate.hpp"
#include "rlv/cert/oracle.hpp"
#include "rlv/fair/fair_check.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/hom/image.hpp"
#include "rlv/io/format.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/monitor/automaton.hpp"
#include "rlv/omega/complement.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"
#include "rlv/util/rng.hpp"

namespace perfbench {

using namespace rlv;
using rlv::net::JsonValue;

namespace {

/// Oracle cap: instances needing more states are checked by witness.
constexpr std::size_t kOracleMaxStates = std::size_t{1} << 15;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.next_u64();
}

/// A transition system over a0..a{letters-1} in which a letter may lead to
/// two states, so pre(L_ω) is nondeterministic and the Lemma 4.3
/// inclusion has real work to do. Every state is reachable and keeps a
/// successor, so no two seeds yield the same small trimmed structure
/// under different texts.
Nfa random_system(Rng& rng, std::size_t states, std::size_t letters) {
  const AlphabetRef sigma = random_alphabet(letters);
  Nfa nfa(sigma);
  for (std::size_t i = 0; i < states; ++i) nfa.add_state(true);
  const auto pick = [&] { return static_cast<State>(rng.next_below(states)); };
  const auto letter = [&] { return static_cast<Symbol>(rng.next_below(letters)); };
  for (State s = 1; s < states; ++s) {
    nfa.add_transition(static_cast<State>(rng.next_below(s)), letter(), s);
  }
  for (State s = 0; s < states; ++s) {
    bool any = false;
    for (Symbol a = 0; a < letters; ++a) {
      if (!rng.chance(1, 2)) continue;
      nfa.add_transition_unique(s, a, pick());
      if (rng.chance(1, 3)) nfa.add_transition_unique(s, a, pick());
      any = true;
    }
    if (!any) nfa.add_transition_unique(s, letter(), pick());
  }
  nfa.set_initial(0);
  return trim(nfa);
}

std::string atom(Rng& rng, std::size_t letters) {
  return "a" + std::to_string(rng.next_below(letters));
}

/// Formula shapes whose translation stays small, with seeded atoms.
std::string random_formula_text(Rng& rng, std::size_t letters) {
  const std::string a = atom(rng, letters);
  const std::string b = atom(rng, letters);
  switch (rng.next_below(9)) {
    case 0: return "G F " + a;
    case 1: return "F G " + a;
    case 2: return "G(" + a + " -> F " + b + ")";
    case 3: return "G F " + a + " && G F " + b;
    case 4: return a + " U " + b;
    case 5: return "G(" + a + " -> X " + b + ")";
    case 6: return "F(" + a + " && X " + b + ")";
    case 7: return "G F " + a + " -> G F " + b;
    default: return "G !" + a;
  }
}

Query formula_query(const std::string& system, std::string formula,
                    CheckKind kind) {
  Query q;
  q.system = system;
  q.formula = std::move(formula);
  q.kind = kind;
  return q;
}

std::optional<Word> word_of(const JsonValue* array, const Alphabet& sigma) {
  if (!array || array->kind != JsonValue::Kind::kArray) return std::nullopt;
  Word w;
  for (const JsonValue& name : array->array) {
    if (!sigma.contains(name.as_string())) return std::nullopt;
    w.push_back(sigma.id(name.as_string()));
  }
  return w;
}

}  // namespace

// ---------------------------------------------------------------------------
// serve_warm / serve_cold.

std::vector<ServeItem> warm_items(std::uint64_t seed) {
  // The seed only picks ring stations in queries that hold (their replies
  // carry no witness), so every seed's mix costs the same to serve.
  Rng rng(mix(seed, 1));
  const auto station = [&](std::size_t n) {
    return std::to_string(rng.next_below(n));
  };
  const std::string fig2 = serialize_system(figure2_system());
  const std::string fig3 = serialize_system(figure3_system());
  const std::string ring3 = serialize_system(token_ring(3));
  const std::string ring4 = serialize_system(token_ring(4));
  const std::string ring5 = serialize_system(token_ring(5));

  std::vector<ServeItem> items;
  const auto add = [&](const std::string& system, std::string formula,
                       CheckKind kind, const char* label) {
    items.push_back({formula_query(system, std::move(formula), kind), label});
  };
  add(fig2, "G F result", CheckKind::kRelativeLiveness, "fig2");
  add(fig2, "G F result", CheckKind::kRelativeSafety, "fig2");
  add(fig2, "G F result", CheckKind::kSatisfaction, "fig2");
  add(fig2, "G(result -> !(X result))", CheckKind::kSatisfaction, "fig2");
  add(fig2, "G(request -> F (result | reject))", CheckKind::kRelativeLiveness,
      "fig2");
  add(fig2, "F G result", CheckKind::kRelativeSafety, "fig2");
  add(fig3, "G F result", CheckKind::kRelativeLiveness, "fig3");
  add(fig3, "G F result", CheckKind::kRelativeSafety, "fig3");
  add(ring3, "G F work_" + station(3), CheckKind::kRelativeLiveness, "ring3");
  add(ring4, "G F pass_" + station(4), CheckKind::kRelativeLiveness, "ring4");
  add(ring4, "G F work_" + station(4), CheckKind::kRelativeLiveness, "ring4");
  add(ring4, "G F pass_0", CheckKind::kSatisfaction, "ring4");
  add(ring5, "G F pass_" + station(5), CheckKind::kRelativeLiveness, "ring5");
  add(ring5, "G F pass_0", CheckKind::kSatisfaction, "ring5");
  return items;
}

ServeItem cold_query(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t group = index / kColdQueriesPerSystem;
  Rng rng(mix(seed, 1000 + group));
  const std::size_t states = 8 + rng.next_below(7);
  const std::size_t letters = 3 + rng.next_below(2);
  const std::string system = serialize_system(random_system(rng, states, letters));
  const std::string label = "cold" + std::to_string(group);

  // The group's queries are drawn in order, so every index is reproducible;
  // repeats within a group are redrawn, so every query is distinct.
  std::set<std::string> seen;
  ServeItem item;
  for (std::uint64_t slot = 0; slot <= index % kColdQueriesPerSystem; ++slot) {
    for (;;) {
      const std::uint64_t r = rng.next_below(100);
      Query q;
      if (r < 81) {
        q = formula_query(system, random_formula_text(rng, letters),
                          r < 45   ? CheckKind::kRelativeLiveness
                          : r < 63 ? CheckKind::kRelativeSafety
                                   : CheckKind::kSatisfaction);
        q.certify = rng.chance(1, 6);
      } else if (r < 90) {
        q = formula_query(system, random_formula_text(rng, letters),
                          r < 86 ? CheckKind::kFairStrong
                                 : CheckKind::kFairWeak);
      } else {
        // Property automata take the rank-based complement path.
        q.system = system;
        q.kind = r < 95 ? CheckKind::kRelativeSafety : CheckKind::kSatisfaction;
        q.property_automaton = serialize_buchi(
            random_buchi(rng, 2, random_alphabet(letters)));
      }
      const std::string key = std::string(check_kind_name(q.kind)) + "|" +
                              q.formula + "|" + q.property_automaton;
      if (seen.insert(key).second) {
        item = {std::move(q), label};
        break;
      }
    }
  }
  return item;
}

CheckResult check_verdict(const Query& query, const JsonValue& record) {
  CheckResult out;
  const JsonValue* ok = record.find("ok");
  const JsonValue* holds_v = record.find("holds");
  if (!ok || !ok->as_bool() || !holds_v) {
    out.ok = false;
    out.detail = "query failed";
    return out;
  }
  const bool holds = holds_v->as_bool();

  const Nfa nfa = parse_system(query.system);
  const Buchi system = limit_of_prefix_closed(nfa);
  const Alphabet& sigma = *nfa.alphabet();
  const std::optional<Word> prefix = word_of(record.find("witness_prefix"), sigma);
  const std::optional<Word> period = word_of(record.find("witness_period"), sigma);
  const auto fail = [&](std::string why) {
    out.ok = false;
    out.detail = std::move(why);
    return out;
  };

  const bool automaton = !query.property_automaton.empty();
  const Labeling lambda = Labeling::canonical(nfa.alphabet());
  std::optional<Formula> f;
  std::optional<Buchi> property;
  if (automaton) {
    property = Buchi::from_structure(remap_alphabet(
        parse_buchi(query.property_automaton).structure(), nfa.alphabet()));
  } else {
    f = parse_ltl(query.formula);
    property = translate_ltl(*f, lambda);
  }

  // Negative verdicts carry a witness; validate it whatever the size.
  if (!holds) {
    cert::Validation v;
    if (query.kind == CheckKind::kRelativeLiveness) {
      if (!prefix) return fail("missing violating prefix");
      v = cert::check_doomed_prefix(*prefix, system, *property);
    } else {
      if (!prefix || !period || period->empty()) {
        return fail("missing counterexample lasso");
      }
      const Lasso lasso{*prefix, *period};
      if (query.kind == CheckKind::kRelativeSafety) {
        v = automaton ? cert::check_safety_lasso(lasso, system, *property)
                      : cert::check_safety_lasso(lasso, system, *property, *f,
                                                 lambda);
      } else {
        v = automaton ? cert::check_violation_lasso(lasso, system, *property)
                      : cert::check_violation_lasso(lasso, system, *f, lambda);
      }
    }
    if (!v.valid) return fail("witness rejected: " + v.reason);
    out.how = Checked::kWitness;
  }

  // Then compare the boolean with the brute-force oracle where it fits.
  try {
    std::optional<bool> expected;
    switch (query.kind) {
      case CheckKind::kRelativeLiveness:
        expected = cert::oracle_relative_liveness(system, *property,
                                                  kOracleMaxStates);
        break;
      case CheckKind::kRelativeSafety:
        expected = automaton
                       ? cert::oracle_relative_safety(
                             system, *property, complement_buchi(*property),
                             kOracleMaxStates)
                       : cert::oracle_relative_safety(system, *f, lambda,
                                                      kOracleMaxStates);
        break;
      case CheckKind::kSatisfaction:
        expected = automaton ? cert::oracle_satisfies(
                                   system, complement_buchi(*property),
                                   kOracleMaxStates)
                             : cert::oracle_satisfies(system, *f, lambda,
                                                      kOracleMaxStates);
        break;
      case CheckKind::kFairStrong:
      case CheckKind::kFairWeak:
        // No fairness oracle exists: a system that satisfies P outright
        // satisfies it under fairness; otherwise recompute in process.
        if (holds && cert::oracle_satisfies(system, *f, lambda,
                                            kOracleMaxStates)) {
          expected = true;
        } else if (holds) {
          out.how = Checked::kLibrary;
          const FairCheckResult fair = check_fair_satisfaction(
              system, *f, lambda,
              query.kind == CheckKind::kFairStrong
                  ? FairnessKind::kStrongTransition
                  : FairnessKind::kWeakTransition);
          if (!fair.all_fair_runs_satisfy) {
            return fail("fair verdict differs from the library");
          }
          return out;
        }
        break;
    }
    if (expected) {
      if (*expected != holds) return fail("verdict differs from the oracle");
      out.how = Checked::kOracle;
    }
  } catch (const std::runtime_error&) {
    // Too large for the oracle: the witness check above is all there is.
  }
  return out;
}

// ---------------------------------------------------------------------------
// monitor_stream.

std::vector<StreamSpec> stream_specs() {
  const auto spec = [](const Nfa& system, const char* formula,
                       const char* label) {
    StreamSpec s;
    s.spec.system = serialize_system(system);
    s.spec.formula = formula;
    s.label = label;
    return s;
  };
  return {
      spec(figure2_system(), "G F result", "fig2"),
      spec(token_ring(4), "G F pass_0", "ring4"),
      spec(figure2_system(), "G(request -> F (result | reject))", "fig2"),
      spec(figure3_system(), "G F result", "fig3"),
  };
}

std::vector<StreamTrace> stream_traces(std::uint64_t seed, std::size_t count,
                                       std::size_t length) {
  const std::vector<StreamSpec> specs = stream_specs();
  std::vector<std::optional<monitor::MonitorAutomaton>> monitors(specs.size());
  Rng rng(mix(seed, 2));
  std::vector<StreamTrace> traces;
  for (std::size_t t = 0; t < count; ++t) {
    StreamTrace trace;
    trace.spec = t % 4 == 3 ? kFigure3Spec : t % 3;
    const Nfa system = parse_system(specs[trace.spec].spec.system);
    const Alphabet& sigma = *system.alphabet();
    if (trace.spec == kFigure3Spec) {
      // Walk the unlocked half of Figure 3 (every prefix there is live),
      // then lock: the resource can never be freed, so no continuation
      // sees `result` infinitely often and the stream is doomed right at
      // the lock. The walk then continues inside the locked half.
      const Symbol lock = sigma.id("lock");
      const std::size_t doom = length / 4 + rng.next_below(length / 2);
      State s = system.initial().front();
      for (std::size_t i = 0; i < length; ++i) {
        std::vector<Transition> moves;
        for (const Transition& tr : system.out(s)) {
          if ((tr.symbol == lock) == (i == doom) || i > doom) moves.push_back(tr);
        }
        if (moves.empty()) throw std::logic_error("figure 3 walk is stuck");
        const Transition& tr = moves[rng.next_below(moves.size())];
        trace.actions.push_back(sigma.name(tr.symbol));
        s = tr.target;
      }
      trace.doom_index = doom;
    } else {
      // A random walk that only takes steps the compiled monitor judges
      // live, so every batch of the trace must be answered "live".
      if (!monitors[trace.spec]) {
        monitors[trace.spec].emplace(limit_of_prefix_closed(system),
                                     parse_ltl(specs[trace.spec].spec.formula),
                                     Labeling::canonical(system.alphabet()));
      }
      const monitor::MonitorAutomaton& aut = *monitors[trace.spec];
      std::uint32_t state = aut.initial();
      for (std::size_t i = 0; i < length; ++i) {
        std::vector<Symbol> live;
        for (Symbol a = 0; a < sigma.size(); ++a) {
          if (aut.verdict(aut.step(state, a)) ==
              monitor::Verdict::kSatisfiable) {
            live.push_back(a);
          }
        }
        if (live.empty()) throw std::logic_error("live walk is stuck");
        const Symbol a = live[rng.next_below(live.size())];
        trace.actions.push_back(sigma.name(a));
        state = aut.step(state, a);
      }
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

bool doom_witness_valid(const StreamSpec& spec,
                        const std::vector<std::string>& witness) {
  const Nfa system = parse_system(spec.spec.system);
  const Alphabet& sigma = *system.alphabet();
  Word w;
  for (const std::string& name : witness) {
    if (!sigma.contains(name)) return false;
    w.push_back(sigma.id(name));
  }
  const Buchi behaviors = limit_of_prefix_closed(system);
  const Buchi property = translate_ltl(parse_ltl(spec.spec.formula),
                                       Labeling::canonical(system.alphabet()));
  return cert::check_doomed_prefix(w, behaviors, property).valid;
}

// ---------------------------------------------------------------------------
// petri_abstraction.

std::vector<PetriInstance> petri_instances(std::uint64_t seed) {
  // The seed picks which ring station the formulas name and the order of
  // the instances. Philosophers keep seat 0: the simplicity check of
  // G (eat -> F done) costs up to half as much again for other seats,
  // which would make the tail depend on the seed.
  Rng rng(mix(seed, 3));
  std::vector<PetriInstance> out;
  const auto add = [&](const petri::NetFile& file, std::string name,
                       std::string eta) {
    out.push_back({std::move(name), file, std::move(eta)});
  };

  for (std::size_t n = 2; n <= 3; ++n) {
    const petri::NetFile phil = petri::philosophers_net(n);
    const std::string name = "phil" + std::to_string(n);
    add(phil, name, "G F eat_0");
    add(phil, name, "F done_0");
    add(phil, name, "G (eat_0 -> F done_0)");
  }
  for (std::size_t b = 2; b <= 6; ++b) {
    const petri::NetFile buffer = petri::bounded_buffer_net(b);
    const std::string name = "buffer" + std::to_string(b);
    add(buffer, name, "G F consume");
    add(buffer, name, "G (produce -> F consume)");
    add(buffer, name, "F G produce");
  }
  for (std::size_t n = 3; n <= 7; ++n) {
    const petri::NetFile ring = petri::ring_workflow_net(n);
    const std::string name = "ring" + std::to_string(n);
    const std::size_t w = rng.next_below(n);
    const std::string work = "work_" + std::to_string(w);
    const std::string next = "work_" + std::to_string((w + 1) % n);
    add(ring, name, "G F " + work);
    add(ring, name, "F G " + work);
    add(ring, name, "G (" + work + " -> F " + next + ")");
  }
  const petri::NetFile flight = petri::flight_workflow_net();
  add(flight, "flight", "G F takeoff");
  add(flight, "flight", "G F land");
  add(flight, "flight", "G (takeoff -> F land)");
  add(flight, "flight", "G (land -> F takeoff)");
  add(flight, "flight", "F G land");

  // The paper's resource server (Figure 1) and its n-client version,
  // hiding the resource handling as Section 2 does.
  petri::NetFile fig1;
  fig1.name = "figure1";
  fig1.net = figure1_net();
  fig1.hidden = {"lock", "free", "yes", "no"};
  add(fig1, "figure1", "G F result");
  add(fig1, "figure1", "G (request -> F (result | reject))");
  add(fig1, "figure1", "G F reject");
  add(fig1, "figure1", "F G reject");
  for (std::size_t clients = 1; clients <= 2; ++clients) {
    petri::NetFile server;
    server.name = "server" + std::to_string(clients);
    server.net = resource_server_net(clients);
    for (TransId t = 0; t < server.net.num_transitions(); ++t) {
      const std::string& label = server.net.label(t);
      if (label != "request_0" && label != "result_0" && label != "reject_0" &&
          std::find(server.hidden.begin(), server.hidden.end(), label) ==
              server.hidden.end()) {
        server.hidden.push_back(label);
      }
    }
    add(server, server.name, "G F result_0");
    add(server, server.name, "G (request_0 -> F (result_0 | reject_0))");
  }

  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.next_below(i)]);
  }
  return out;
}

Nfa unfold_system(const petri::NetFile& file) {
  const ReachabilityGraph graph = build_reachability_graph(file.net);
  if (!graph.complete) throw std::runtime_error("unfolding truncated");
  return has_maximal_words(graph.system) ? extend_maximal_words(graph.system)
                                         : graph.system;
}

PipelineSummary run_pipeline(const PetriInstance& instance) {
  const Nfa system = unfold_system(instance.file);
  const Homomorphism h =
      petri::derive_abstraction(system.alphabet(), instance.file.hidden);
  const AbstractionVerdict v =
      verify_via_abstraction(system, h, to_pnf(parse_ltl(instance.eta)));
  return {v.abstract_holds, v.simplicity_checked, v.concrete_holds,
          v.concrete_states};
}

bool pipeline_verdict_valid(const PetriInstance& instance,
                            const PipelineSummary& summary) {
  if (!summary.concrete_holds) return true;
  const Nfa system = unfold_system(instance.file);
  const Homomorphism h =
      petri::derive_abstraction(system.alphabet(), instance.file.hidden);
  return concrete_relative_liveness(system, h, to_pnf(parse_ltl(instance.eta))) ==
         *summary.concrete_holds;
}

}  // namespace perfbench
