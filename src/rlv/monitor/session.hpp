#pragma once

// SessionTable — live monitored streams interned as almost nothing.
//
// A session is {automaton, dfa state, event count}: the compiled
// MonitorAutomaton is shared (one per distinct (system, property) pair,
// via the engine cache), so each concurrent stream costs one slab slot.
// Allocation is O(1) slab + free-list; ids carry a generation tag so a
// stale id (closed and slot reused) is detected instead of silently
// stepping someone else's stream; an intrusive LRU list makes idle-session
// GC O(expired) per sweep instead of O(open).
//
// The table is deliberately single-threaded (no locks): the engine wraps
// it in its own mutex, and contention is negligible next to the network
// round-trip that precedes every touch. The one exception is the counter
// block: it is kept in relaxed atomics so a stats snapshot can read it
// WITHOUT the engine's session mutex — observability polling must never
// queue behind the monitor stepping hot path. All writers still hold the
// engine mutex; only the reads are unsynchronized.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "rlv/monitor/automaton.hpp"

namespace rlv::monitor {

struct Session {
  std::shared_ptr<const MonitorAutomaton> automaton;
  std::uint32_t state = 0;
  std::uint64_t events = 0;
};

/// Counter snapshot returned by SessionTable::counters(). All fields but
/// `open` are monotonic.
struct SessionCounters {
  std::uint64_t open = 0;            // currently open
  std::uint64_t peak = 0;            // high-water mark of `open`
  std::uint64_t opened = 0;          // total ever opened
  std::uint64_t idle_reclaimed = 0;  // closed by sweep_idle
};

class SessionTable {
 public:
  /// `max_sessions` is the global cap; 0 = unlimited.
  explicit SessionTable(std::size_t max_sessions = 0)
      : max_sessions_(max_sessions) {}

  /// Opens a session at the automaton's initial state. Returns the session
  /// id, or 0 when the table is at its cap — the deterministic overload
  /// signal. Valid ids are never 0.
  [[nodiscard]] std::uint64_t open(
      std::shared_ptr<const MonitorAutomaton> automaton, std::uint64_t now_ms);

  /// Looks a session up, refreshing its idle clock and LRU position.
  /// nullptr for unknown, closed, or stale (generation mismatch) ids. The
  /// pointer is valid until the next open/close/sweep call.
  [[nodiscard]] Session* find(std::uint64_t id, std::uint64_t now_ms);

  /// Closes a session; false when the id is unknown/stale/already closed.
  bool close(std::uint64_t id);

  /// Closes every session idle for at least `max_idle_ms`; returns how
  /// many were reclaimed. Walks only the expired prefix of the LRU list.
  std::size_t sweep_idle(std::uint64_t now_ms, std::uint64_t max_idle_ms);

  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(
        counters_.open.load(std::memory_order_relaxed));
  }
  /// Lock-free snapshot — safe to call concurrently with mutations (the
  /// fields are read individually, so a snapshot taken mid-open may show
  /// e.g. `open` bumped before `opened`; fine for observability).
  [[nodiscard]] SessionCounters counters() const {
    SessionCounters snap;
    snap.open = counters_.open.load(std::memory_order_relaxed);
    snap.peak = counters_.peak.load(std::memory_order_relaxed);
    snap.opened = counters_.opened.load(std::memory_order_relaxed);
    snap.idle_reclaimed =
        counters_.idle_reclaimed.load(std::memory_order_relaxed);
    return snap;
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffU;

  struct Slot {
    Session session;
    std::uint64_t last_touch_ms = 0;
    std::uint32_t generation = 1;  // bumped on close, 21 bits, never 0
    bool in_use = false;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
  };

  void lru_unlink(std::uint32_t index);
  void lru_push_back(std::uint32_t index);
  [[nodiscard]] Slot* slot_of(std::uint64_t id);
  void release(std::uint32_t index);

  /// Relaxed atomics so counters() reads without the caller's lock; every
  /// mutation happens under the engine's session mutex, so writers never
  /// race each other and plain load-modify-store peak tracking is exact.
  struct AtomicCounters {
    std::atomic<std::uint64_t> open{0};
    std::atomic<std::uint64_t> peak{0};
    std::atomic<std::uint64_t> opened{0};
    std::atomic<std::uint64_t> idle_reclaimed{0};
  };

  std::size_t max_sessions_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint32_t lru_head_ = kNil;  // least recently touched
  std::uint32_t lru_tail_ = kNil;  // most recently touched
  AtomicCounters counters_;
};

}  // namespace rlv::monitor
