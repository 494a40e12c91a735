#pragma once

// The one way an explicit-state exploration names its states.
//
// Every construction rlv needs (pair products, subset constructions, the
// rank complement, synchronized components, the doom monitor's product DFA,
// Petri markings, tableau nodes) reaches tuples of fixed width and gives
// each distinct tuple a dense 32-bit id in first-seen order. Two pieces:
//
//   * IdTable — a flat open-addressing (linear-probe) table that maps
//     caller-computed hashes to dense 32-bit ids. It stores only ids, so
//     growth is a single flat rehash and probes touch one cache line each.
//   * TupleInterner<T> — the tuple store over one IdTable: the caller picks
//     the element type and the width from its input, tuples live back to
//     back in one contiguous array, and a configuration then carries a
//     4-byte id instead of an owned vector; equality is id comparison.
//
// Neither is thread-safe; each kernel search owns its own.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "rlv/util/hash.hpp"

namespace rlv {

/// Flat linear-probe table of dense 32-bit ids. The caller owns key storage
/// and supplies `eq(id)` (does stored id's key equal the probe key?) and,
/// on growth, `hash_of(id)` (recompute a stored key's hash).
class IdTable {
 public:
  static constexpr std::uint32_t kNoId = 0xffffffffU;

  IdTable() { slots_.assign(kInitialSlots, kNoId); }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t bytes() const {
    return slots_.size() * sizeof(std::uint32_t);
  }

  /// Finds the id whose key matches, or kNoId.
  template <typename Eq>
  [[nodiscard]] std::uint32_t find(std::size_t hash, Eq&& eq) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const std::uint32_t id = slots_[i];
      if (id == kNoId) return kNoId;
      if (eq(id)) return id;
    }
  }

  /// Inserts `id` under `hash`. The key must not already be present.
  template <typename HashOf>
  void insert(std::size_t hash, std::uint32_t id, HashOf&& hash_of) {
    if ((count_ + 1) * 10 >= slots_.size() * 7) grow(hash_of);
    insert_no_grow(hash, id);
    ++count_;
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;  // power of two

  void insert_no_grow(std::size_t hash, std::uint32_t id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != kNoId) i = (i + 1) & mask;
    slots_[i] = id;
  }

  template <typename HashOf>
  void grow(HashOf&& hash_of) {
    std::vector<std::uint32_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, kNoId);
    for (const std::uint32_t id : old) {
      if (id != kNoId) insert_no_grow(hash_of(id), id);
    }
  }

  std::vector<std::uint32_t> slots_;
  std::size_t count_ = 0;
};

/// Interns fixed-width tuples of `T` (`width` elements each) into one
/// contiguous array: tuple `id` occupies [id * width, id * width + width).
/// Ids are dense and handed out in first-seen order, so callers index side
/// tables by them and an exploration that interns in a fixed order numbers
/// its states the same way on every run. Storage never shrinks and never
/// moves ids. `T` is an integer type (state ids, bitset words, ranks,
/// variable values); a tuple hashes as hash_combine folded over its
/// elements from a seed that depends only on the width.
template <typename T>
class TupleInterner {
 public:
  static constexpr std::uint32_t kNoId = IdTable::kNoId;

  explicit TupleInterner(std::size_t width) : width_(width) {}

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t size() const { return table_.size(); }

  /// Elements of an interned id. Invalidated by the next intern() (the
  /// backing vector may grow) — copy out before interning more.
  [[nodiscard]] const T* at(std::uint32_t id) const {
    return storage_.data() + static_cast<std::size_t>(id) * width_;
  }

  /// Looks up the tuple held in `t` without inserting. Returns the id, or
  /// kNoId when the tuple has never been interned.
  [[nodiscard]] std::uint32_t find(const T* t) const {
    return table_.find(hash(t), [&](std::uint32_t id) { return equal(id, t); });
  }

  /// Interns the tuple held in `t` (width() elements). Returns (id, fresh).
  std::pair<std::uint32_t, bool> intern(const T* t) {
    const std::size_t h = hash(t);
    const std::uint32_t found =
        table_.find(h, [&](std::uint32_t id) { return equal(id, t); });
    if (found != kNoId) return {found, false};
    const auto id = static_cast<std::uint32_t>(size());
    storage_.insert(storage_.end(), t, t + width_);
    table_.insert(h, id, [&](std::uint32_t x) { return hash(at(x)); });
    return {id, true};
  }

  [[nodiscard]] std::size_t bytes() const {
    return storage_.capacity() * sizeof(T) + table_.bytes();
  }

 private:
  [[nodiscard]] std::size_t hash(const T* t) const {
    std::size_t h = 0x9e3779b97f4a7c15ULL ^ width_;
    for (std::size_t i = 0; i < width_; ++i) {
      h = hash_combine(h, static_cast<std::size_t>(t[i]));
    }
    return h;
  }

  [[nodiscard]] bool equal(std::uint32_t id, const T* t) const {
    return std::equal(t, t + width_, at(id));
  }

  std::size_t width_;
  std::vector<T> storage_;  // size() * width_
  IdTable table_;
};

}  // namespace rlv
