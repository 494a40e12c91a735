#include "rlv/monitor/session.hpp"

namespace rlv::monitor {

namespace {

/// Generations cycle through 1 .. 2^21 - 1 (0 would make id 0), so ids
/// stay below 2^53, the limit up to which a JSON number is exact.
constexpr std::uint32_t kMaxGeneration = (1U << 21) - 1;

constexpr std::uint64_t encode_id(std::uint32_t index,
                                  std::uint32_t generation) {
  return (static_cast<std::uint64_t>(generation) << 32) | index;
}

}  // namespace

void SessionTable::lru_unlink(std::uint32_t index) {
  Slot& slot = slots_[index];
  if (slot.lru_prev != kNil) {
    slots_[slot.lru_prev].lru_next = slot.lru_next;
  } else {
    lru_head_ = slot.lru_next;
  }
  if (slot.lru_next != kNil) {
    slots_[slot.lru_next].lru_prev = slot.lru_prev;
  } else {
    lru_tail_ = slot.lru_prev;
  }
  slot.lru_prev = slot.lru_next = kNil;
}

void SessionTable::lru_push_back(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.lru_prev = lru_tail_;
  slot.lru_next = kNil;
  if (lru_tail_ != kNil) slots_[lru_tail_].lru_next = index;
  lru_tail_ = index;
  if (lru_head_ == kNil) lru_head_ = index;
}

std::uint64_t SessionTable::open(
    std::shared_ptr<const MonitorAutomaton> automaton, std::uint64_t now_ms) {
  if (max_sessions_ > 0 && size() >= max_sessions_) return 0;
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.session.automaton = std::move(automaton);
  slot.session.state = slot.session.automaton->initial();
  slot.session.events = 0;
  slot.last_touch_ms = now_ms;
  slot.in_use = true;
  lru_push_back(index);
  const std::uint64_t open =
      counters_.open.fetch_add(1, std::memory_order_relaxed) + 1;
  counters_.opened.fetch_add(1, std::memory_order_relaxed);
  if (open > counters_.peak.load(std::memory_order_relaxed)) {
    counters_.peak.store(open, std::memory_order_relaxed);
  }
  return encode_id(index, slot.generation);
}

SessionTable::Slot* SessionTable::slot_of(std::uint64_t id) {
  const std::uint32_t index = static_cast<std::uint32_t>(id & 0xffffffffU);
  const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
  if (index >= slots_.size()) return nullptr;
  Slot& slot = slots_[index];
  if (!slot.in_use || slot.generation != generation) return nullptr;
  return &slot;
}

Session* SessionTable::find(std::uint64_t id, std::uint64_t now_ms) {
  Slot* slot = slot_of(id);
  if (!slot) return nullptr;
  slot->last_touch_ms = now_ms;
  const auto index = static_cast<std::uint32_t>(slot - slots_.data());
  if (lru_tail_ != index) {
    lru_unlink(index);
    lru_push_back(index);
  }
  return &slot->session;
}

void SessionTable::release(std::uint32_t index) {
  Slot& slot = slots_[index];
  lru_unlink(index);
  slot.session.automaton.reset();
  slot.in_use = false;
  slot.generation = slot.generation % kMaxGeneration + 1;  // old ids miss
  free_.push_back(index);
  counters_.open.fetch_sub(1, std::memory_order_relaxed);
}

bool SessionTable::close(std::uint64_t id) {
  Slot* slot = slot_of(id);
  if (!slot) return false;
  release(static_cast<std::uint32_t>(slot - slots_.data()));
  return true;
}

std::size_t SessionTable::sweep_idle(std::uint64_t now_ms,
                                     std::uint64_t max_idle_ms) {
  std::size_t reclaimed = 0;
  while (lru_head_ != kNil) {
    Slot& slot = slots_[lru_head_];
    if (now_ms - slot.last_touch_ms < max_idle_ms) break;  // rest is fresher
    release(lru_head_);
    ++reclaimed;
    counters_.idle_reclaimed.fetch_add(1, std::memory_order_relaxed);
  }
  return reclaimed;
}

}  // namespace rlv::monitor
