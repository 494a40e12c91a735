#pragma once

// Query and verdict types for the batch verification engine. A Query is
// self-contained text — the system in the rlv/io format and the property as
// a PLTL formula or a Büchi automaton — so that batches can be shipped over
// a wire or a file without sharing in-memory objects; the engine's caches
// recover all sharing (identical system text parses once, identical
// formulas translate once per alphabet, identical property automata parse
// and remap once per alphabet).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rlv/core/check.hpp"
#include "rlv/engine/cache.hpp"
#include "rlv/lang/alphabet.hpp"
#include "rlv/monitor/automaton.hpp"
#include "rlv/omega/emptiness.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {

struct Query {
  std::string system;   // system text in the rlv/io format
  std::string formula;  // PLTL formula text (ignored with property_automaton)
  CheckKind kind = CheckKind::kRelativeLiveness;
  /// When nonempty: the property as Büchi-automaton text (rlv/io format,
  /// parse_buchi), remapped onto the system's alphabet by symbol name; the
  /// formula is then ignored. The rs/sat/fair flavors go through rank-based
  /// complementation — exponential; budget accordingly.
  std::string property_automaton = {};
  /// Per-query budget overrides for the serving path: nonzero replaces the
  /// engine-wide EngineOptions default for this query only. The rlv::net
  /// server clamps client-supplied values to its caps before submission.
  /// NOT part of the verdict cache key — exhausted verdicts are never
  /// cached, so budgets cannot alias outcomes.
  std::uint64_t timeout_ms = 0;
  std::uint64_t max_states = 0;
  /// Request-level certification opt-in, ORed with
  /// EngineOptions::certify_verdicts: a query can strengthen the engine's
  /// policy but never weaken it (a certify=false request must not push an
  /// unvalidated verdict into a cache that certified clients share).
  /// The effective bit is part of the verdict cache key, so a certified
  /// query is never served a verdict that was cached unvalidated (while a
  /// plain query may be served a certified one).
  bool certify = false;
};

/// A query's answer: the CheckResult of its check (meaningless when
/// `error` is set or the budget was exhausted) plus what serving it adds.
struct Verdict : CheckResult {
  /// The alphabet the witness symbols index (the behaviors automaton's,
  /// which decided the check); null when the query failed. Rendering a
  /// record names witness actions through it.
  AlphabetRef alphabet;
  /// Nonempty when the query failed (parse error, bad formula, ...).
  std::string error;
  /// True when the per-query budget tripped before a verdict was reached;
  /// `exhausted_stage` then names the pipeline stage that was running.
  /// Exhausted verdicts are never cached, so a retry with a larger budget
  /// recomputes.
  bool resource_exhausted = false;
  std::string exhausted_stage;
  /// Wall-clock time this query spent executing (including cache lookups).
  double millis = 0.0;
  /// Per-stage counters and exclusive timings for this query. Stages served
  /// from cache contribute (almost) nothing — the profile measures work
  /// actually done, which is what a capacity planner needs.
  QueryProfile profile;

  [[nodiscard]] bool ok() const {
    return error.empty() && !resource_exhausted;
  }
};

/// What to monitor: the streaming counterpart of Query. A spec identifies
/// a (system, property) pair only — compilation happens once per distinct
/// spec (the engine's monitor-automaton cache), after which any number of
/// sessions step the shared compiled table.
struct MonitorSpec {
  std::string system;   // system text in the rlv/io format
  std::string formula;  // PLTL formula text (ignored with property_automaton)
  /// When nonempty: the property as Büchi-automaton text (see Query).
  std::string property_automaton = {};
  /// Validate a doomed-prefix witness per doomed state with rlv::cert at
  /// compile time; doom responses then report witness_certified. Part of
  /// the automaton cache key (a certified compile is a stronger artifact).
  bool certify = false;
};

struct MonitorOpenResult {
  /// Session id for subsequent step/close calls; 0 when the open failed.
  std::uint64_t session = 0;
  /// Verdict of the empty trace (kDoomed/kLeftSystem for degenerate specs).
  monitor::Verdict verdict = monitor::Verdict::kSatisfiable;
  bool certified = false;
  /// The global session table is at its cap — the deterministic overload
  /// signal, distinct from an error.
  bool table_full = false;
  bool resource_exhausted = false;
  std::string exhausted_stage;
  std::string error;  // parse/compile failure; empty on success
  double millis = 0.0;

  [[nodiscard]] bool ok() const {
    return error.empty() && !table_full && !resource_exhausted;
  }
};

struct MonitorStepResult {
  monitor::Verdict verdict = monitor::Verdict::kSatisfiable;
  /// Total events this session has consumed (including this batch).
  std::uint64_t events = 0;
  /// Index within THIS batch where the verdict left kSatisfiable, if it
  /// did here; `transition_doomed` tells doom apart from leaving the
  /// system.
  std::optional<std::size_t> transition_index;
  bool transition_doomed = false;
  /// On a doom transition: the automaton's canonical shortest doomed
  /// prefix reaching the same state, as action names (the residual of a
  /// DFA state is independent of the path taken to it).
  std::vector<std::string> witness;
  bool witness_certified = false;
  /// Error code: "unknown_session", "unknown_action", "event_cap". A batch
  /// with any bad action is rejected whole — no partial application.
  std::string error;
  std::string error_detail;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

struct MonitorCloseResult {
  bool closed = false;
  std::uint64_t events = 0;  // total events the session consumed
  std::string error;         // "unknown_session" or empty

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Session-table and stepping totals since engine construction.
struct MonitorCounters {
  std::uint64_t sessions_open = 0;
  std::uint64_t sessions_peak = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t idle_reclaimed = 0;
  std::uint64_t steps = 0;  // events consumed across all sessions
  std::uint64_t dooms = 0;  // live -> doomed transitions observed
};

/// Counter snapshot of every engine cache plus batch totals.
struct EngineStats {
  CacheCounters systems;       // text → parsed Nfa
  CacheCounters behaviors;     // system → lim(L) Büchi automaton
  CacheCounters prefixes;      // system → trimmed pre(L_ω) NFA
  CacheCounters translations;  // (formula, polarity) → tableau
  CacheCounters properties;    // (automaton text, alphabet) → remapped Büchi
  CacheCounters verdicts;      // (system, property, kind, certify) → Verdict
  CacheCounters monitors;      // (system, property, certify) → MonitorAutomaton
  MonitorCounters monitor;     // session table + stepping totals
  std::uint64_t queries_run = 0;
  /// Certificate validations performed on negative verdicts before caching
  /// (EngineOptions::certify_verdicts). A nonzero `certificates_failed`
  /// means a kernel produced a witness the independent checker rejected —
  /// the corresponding verdicts were reported as errors, never cached.
  std::uint64_t certificates_checked = 0;
  std::uint64_t certificates_failed = 0;
  /// Sum of every executed query's per-stage profile.
  QueryProfile stages;

  [[nodiscard]] CacheCounters total() const {
    CacheCounters t;
    t += systems;
    t += behaviors;
    t += prefixes;
    t += translations;
    t += properties;
    t += verdicts;
    t += monitors;
    return t;
  }
};

}  // namespace rlv
