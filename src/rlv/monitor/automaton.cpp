#include "rlv/monitor/automaton.hpp"

#include <algorithm>
#include <stdexcept>

#include "rlv/cert/certificate.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/util/intern.hpp"

namespace rlv::monitor {

std::string_view verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kSatisfiable:
      return "live";
    case Verdict::kDoomed:
      return "doomed";
    case Verdict::kLeftSystem:
      return "left_system";
  }
  return "?";
}

MonitorAutomaton::MonitorAutomaton(const Buchi& system, const Buchi& property,
                                   bool certify, Budget* budget)
    : sigma_((require_same_alphabet(system.alphabet(), property.alphabet(),
                                    "MonitorAutomaton"),
              system.alphabet())) {
  build(system, property, certify, budget);
}

MonitorAutomaton::MonitorAutomaton(const Buchi& system, Formula f,
                                   const Labeling& lambda, bool certify,
                                   Budget* budget)
    : MonitorAutomaton(system, translate_ltl(f, lambda, budget), certify,
                       budget) {}

void MonitorAutomaton::build(const Buchi& system, const Buchi& property,
                             bool certify, Budget* budget) {
  // The two pre-language DFAs of Lemma 4.3. Both prefix NFAs hold reachable
  // live states only, all accepting, so after determinization a word is in
  // the language iff the (partial) DFA is still alive on it.
  const Dfa sat =
      determinize(prefix_of_intersection(system, property, budget), budget);
  const Dfa sys_pre = determinize(prefix_nfa(system), budget);

  stride_ = sigma_->size();
  const std::size_t n_sys = sys_pre.num_states();
  const std::size_t n_sat = sat.num_states();
  const std::uint32_t kDeadSys = static_cast<std::uint32_t>(n_sys);
  const std::uint32_t kDeadSat = static_cast<std::uint32_t>(n_sat);

  // A component is alive only in an accepting state; a prefix DFA can only
  // have a non-accepting state when its language is empty (determinize of
  // zero states), which the guard folds into "dead" uniformly.
  const auto sys_of = [&](State s) {
    return (s == kNoState || !sys_pre.is_accepting(s))
               ? kDeadSys
               : static_cast<std::uint32_t>(s);
  };
  const auto sat_of = [&](State t) {
    return (t == kNoState || !sat.is_accepting(t))
               ? kDeadSat
               : static_cast<std::uint32_t>(t);
  };

  // Intern reachable (sys, sat) pairs by BFS; interning order is BFS order,
  // so ids are nondecreasing in depth and the parent pointers form a
  // shortest-path tree. Once the system component dies the pair collapses
  // to the single absorbing (dead, dead) left-sink.
  TupleInterner<std::uint32_t> pairs(2);
  const auto intern = [&](std::uint32_t sys, std::uint32_t sat,
                          std::uint32_t from, Symbol a) {
    if (sys == kDeadSys) sat = kDeadSat;  // one left-sink, not many
    const std::uint32_t pair[2] = {sys, sat};
    const auto [id, fresh] = pairs.intern(pair);
    if (fresh) {
      budget_charge(budget);
      parent_.push_back(from);
      via_.push_back(a);
    }
    return id;
  };
  const auto sys_at = [&](std::uint32_t id) { return pairs.at(id)[0]; };
  const auto sat_at = [&](std::uint32_t id) { return pairs.at(id)[1]; };

  initial_ = intern(sys_of(sys_pre.initial()), sat_of(sat.initial()),
                    /*from=*/0, /*a=*/0);
  parent_[initial_] = initial_;  // root marker for the witness backtrace

  for (std::uint32_t id = 0; id < pairs.size(); ++id) {
    table_.resize(table_.size() + stride_);
    // Copy: intern() may move the pair storage.
    const std::uint32_t sys = sys_at(id);
    const std::uint32_t sat_state = sat_at(id);
    for (Symbol a = 0; a < stride_; ++a) {
      std::uint32_t next_sys = kDeadSys;
      std::uint32_t next_sat = kDeadSat;
      if (sys != kDeadSys) {
        next_sys = sys_of(sys_pre.next(static_cast<State>(sys), a));
        if (next_sys != kDeadSys && sat_state != kDeadSat) {
          next_sat = sat_of(sat.next(static_cast<State>(sat_state), a));
        }
      }
      table_[static_cast<std::size_t>(id) * stride_ + a] =
          intern(next_sys, next_sat, id, a);
    }
  }

  const std::size_t n = pairs.size();

  // Doomed = system-alive states NOT co-reachable to a winnable state,
  // where winnable means the pre(L_ω ∩ P) component is still alive. The
  // backward pass runs over the compiled table itself, independent of how
  // the component DFAs were produced.
  std::vector<std::vector<std::uint32_t>> preds(n);
  for (std::uint32_t from = 0; from < n; ++from) {
    for (Symbol a = 0; a < stride_; ++a) {
      preds[table_[static_cast<std::size_t>(from) * stride_ + a]].push_back(
          from);
    }
  }
  std::vector<std::uint8_t> coreach(n, 0);
  std::vector<std::uint32_t> worklist;
  for (std::uint32_t id = 0; id < n; ++id) {
    if (sat_at(id) != kDeadSat) {
      coreach[id] = 1;
      worklist.push_back(id);
    }
  }
  while (!worklist.empty()) {
    const std::uint32_t id = worklist.back();
    worklist.pop_back();
    for (const std::uint32_t pred : preds[id]) {
      if (!coreach[pred]) {
        coreach[pred] = 1;
        worklist.push_back(pred);
      }
    }
  }

  verdicts_.resize(n);
  first_doomed_ = static_cast<std::uint32_t>(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    Verdict v;
    if (sys_at(id) == kDeadSys) {
      v = Verdict::kLeftSystem;
    } else if (!coreach[id]) {
      v = Verdict::kDoomed;
    } else {
      v = Verdict::kSatisfiable;
    }
    // With trimmed prefix DFAs every winnable state is itself sat-alive,
    // so the co-reachability doom set must coincide with "sat component
    // dead" — a construction invariant, not an input assumption.
    if (sys_at(id) != kDeadSys &&
        (v == Verdict::kDoomed) != (sat_at(id) == kDeadSat)) {
      throw std::logic_error(
          "MonitorAutomaton: co-reachability doom set disagrees with the "
          "pre-language classification");
    }
    verdicts_[id] = static_cast<std::uint8_t>(v);
    if (v == Verdict::kDoomed) {
      ++num_doomed_;
      if (first_doomed_ == n) first_doomed_ = id;
    }
  }

  if (certify) {
    // Validate one canonical witness per reachable doomed state with the
    // independent certificate checker before this automaton can serve a
    // single verdict. A refuted witness means a kernel bug — fail the
    // compile, never the stream.
    StageScope scope(budget, Stage::kOther);
    for (std::uint32_t id = 0; id < n; ++id) {
      if (verdict(id) != Verdict::kDoomed) continue;
      const cert::Validation validation =
          cert::check_doomed_prefix(witness(id), system, property);
      if (!validation.valid) {
        throw std::runtime_error(
            "monitor witness certification failed: " + validation.reason);
      }
    }
    certified_ = true;
  }
}

Word MonitorAutomaton::witness(std::uint32_t state) const {
  Word w;
  while (state != initial_) {
    w.push_back(via_[state]);
    state = parent_[state];
  }
  std::reverse(w.begin(), w.end());
  return w;
}

std::optional<Word> MonitorAutomaton::shortest_doomed_prefix() const {
  if (num_doomed_ == 0) return std::nullopt;
  // BFS interning order makes the lowest doomed id the shallowest doomed
  // state, and its tree path a globally shortest doomed word.
  return witness(first_doomed_);
}

}  // namespace rlv::monitor
