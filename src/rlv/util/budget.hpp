#pragma once

// Resource governance for the expensive decision-procedure kernels. The
// paper's checks are PSPACE-complete (Thm 4.5) and the automaton-flavored
// relative-safety path goes through rank-based Büchi complementation, which
// is exponential — so every construction that can blow up (determinize,
// complement, translate, product, inclusion) accepts an optional Budget:
//
//   * a wall-clock deadline and a cap on constructed states/configs;
//   * per-stage observability: calls, states built, peak antichain size,
//     and exclusive nanoseconds per pipeline stage (StageScope).
//
// When a limit trips, the kernel raises ResourceExhausted carrying the
// stage that was running; callers (rlv/core/relative.cpp, the query engine)
// surface it as a distinct "resource exhausted" verdict — never a crash or
// a wrong boolean. A null Budget* (the default everywhere) is a no-op, so
// budget-disabled results are identical to unbudgeted execution.
//
// A Budget governs ONE check on ONE thread: every kernel charges it from
// the thread that runs the check, so its counters are plain integers.
// The engine creates a fresh Budget per query and merges the profile into
// its cumulative stats afterwards.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rlv {

/// Pipeline stages of the Lemma 4.3/4.4 decision procedures, in pipeline
/// order. kOther collects work done outside any named stage (e.g. a
/// standalone determinize() call).
enum class Stage : std::uint8_t {
  kParse,       // system / formula / property-automaton parsing
  kPreTrim,     // lim(L) construction and pre(L_ω) / pre(L_ω ∩ P) liveness
  kTranslate,   // LTL → Büchi (GPVW tableau + degeneralization)
  kProduct,     // Büchi intersection, pair products (rl/rs, fair checks)
  kInclusion,   // NFA inclusion (subset or antichain)
  kEmptiness,   // Büchi emptiness / lasso extraction
  kComplement,  // rank-based Büchi complementation
  kPetriUnfold, // Petri-net reachability-graph unfolding
  kOther,
};

inline constexpr std::size_t kNumStages = 9;

[[nodiscard]] std::string_view stage_name(Stage stage);

/// Raised by a budget-governed kernel when a limit trips. Carries the stage
/// that was charging when the budget ran out.
class ResourceExhausted : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t { kDeadline, kStates };

  ResourceExhausted(Stage stage, Kind kind);

  [[nodiscard]] Stage stage() const { return stage_; }
  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Stage stage_;
  Kind kind_;
};

/// Per-stage observability counters.
struct StageMetrics {
  std::uint64_t calls = 0;              // StageScope entries
  std::uint64_t states_built = 0;       // states/configs constructed
  std::uint64_t peak_antichain = 0;     // peak antichain/frontier
  std::uint64_t peak_memory_bytes = 0;  // arena + intern storage
  std::uint64_t nanos = 0;              // exclusive wall time
};

/// One profile per check: the metrics of every stage.
struct QueryProfile {
  std::array<StageMetrics, kNumStages> stages{};

  [[nodiscard]] const StageMetrics& operator[](Stage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] StageMetrics& operator[](Stage s) {
    return stages[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] std::uint64_t total_nanos() const {
    std::uint64_t total = 0;
    for (const StageMetrics& m : stages) total += m.nanos;
    return total;
  }
};

class StageScope;

/// Wall-clock deadline + constructed-state cap, plus the per-stage profile.
/// Default-constructed Budgets are unlimited and only record metrics.
class Budget {
 public:
  using Clock = std::chrono::steady_clock;

  Budget() = default;

  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  /// Arms the wall-clock deadline `timeout` from now.
  void set_deadline_in(std::chrono::milliseconds timeout) {
    deadline_ = Clock::now() + timeout;
    has_deadline_ = true;
  }

  /// Caps the total number of states/configs charged across all stages.
  void set_max_states(std::uint64_t max_states) { max_states_ = max_states; }

  /// Records `states` newly constructed states/configs under the current
  /// stage and enforces both limits. Throws ResourceExhausted.
  void charge(std::uint64_t states = 1) {
    profile_[stage_].states_built += states;
    states_used_ += states;
    if (states_used_ > max_states_) {
      throw ResourceExhausted(stage_, ResourceExhausted::Kind::kStates);
    }
    maybe_check_deadline();
  }

  /// Deadline check only — for inner loops that do work without building
  /// states (e.g. the ranking odometer of the complement construction).
  /// Cheap: consults the clock once every 64 calls.
  void tick() { maybe_check_deadline(); }

  /// Updates the peak antichain/frontier size of the current stage.
  void note_frontier(std::uint64_t size) {
    std::uint64_t& peak = profile_[stage_].peak_antichain;
    peak = std::max(peak, size);
  }

  /// Updates the peak kernel-memory footprint (arena + intern storage
  /// bytes) of the current stage. Observability only — the enforced limits
  /// stay the state cap and the deadline.
  void note_memory(std::uint64_t bytes) {
    std::uint64_t& peak = profile_[stage_].peak_memory_bytes;
    peak = std::max(peak, bytes);
  }

  [[nodiscard]] Stage stage() const { return stage_; }
  [[nodiscard]] const QueryProfile& profile() const { return profile_; }
  [[nodiscard]] std::uint64_t states_used() const { return states_used_; }

 private:
  friend class StageScope;

  void maybe_check_deadline() {
    if (!has_deadline_) return;
    if ((deadline_ticks_++ & 0x3f) != 0x3f) return;
    check_deadline_now();
  }

  void check_deadline_now() {
    if (has_deadline_ && Clock::now() > deadline_) {
      throw ResourceExhausted(stage_, ResourceExhausted::Kind::kDeadline);
    }
  }

  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::uint64_t max_states_ = ~std::uint64_t{0};
  std::uint64_t states_used_ = 0;
  std::uint32_t deadline_ticks_ = 0;
  Stage stage_ = Stage::kOther;
  StageScope* top_ = nullptr;
  QueryProfile profile_;
};

/// RAII stage marker: while alive, charges against `budget` are attributed
/// to `stage`, and the scope's *exclusive* wall time (elapsed minus nested
/// scopes) is added to the stage's nanos — so summing stage nanos over a
/// profile approximates the total governed wall time without double
/// counting. Null budget is a no-op. Entering a scope also checks the
/// deadline, so an expired budget trips at the next stage boundary even if
/// the previous stage never charged.
class StageScope {
 public:
  StageScope(Budget* budget, Stage stage) : budget_(budget), stage_(stage) {
    if (!budget_) return;
    budget_->check_deadline_now();  // before any mutation: throw = clean
    parent_ = budget_->top_;
    prev_stage_ = budget_->stage_;
    budget_->top_ = this;
    budget_->stage_ = stage_;
    budget_->profile_[stage_].calls += 1;
    start_ = Budget::Clock::now();
  }

  ~StageScope() {
    if (!budget_) return;
    const auto elapsed = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Budget::Clock::now() - start_)
            .count());
    budget_->profile_[stage_].nanos += elapsed - child_nanos_;
    if (parent_) parent_->child_nanos_ += elapsed;
    budget_->top_ = parent_;
    budget_->stage_ = prev_stage_;
  }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  Budget* budget_;
  Stage stage_;
  Stage prev_stage_ = Stage::kOther;
  StageScope* parent_ = nullptr;
  Budget::Clock::time_point start_{};
  std::uint64_t child_nanos_ = 0;
};

/// Null-safe helpers for kernels that receive `Budget* budget = nullptr`.
inline void budget_charge(Budget* budget, std::uint64_t states = 1) {
  if (budget) budget->charge(states);
}
inline void budget_tick(Budget* budget) {
  if (budget) budget->tick();
}
inline void budget_note_frontier(Budget* budget, std::uint64_t size) {
  if (budget) budget->note_frontier(size);
}
inline void budget_note_memory(Budget* budget, std::uint64_t bytes) {
  if (budget) budget->note_memory(bytes);
}

}  // namespace rlv
