#pragma once

// Open-addressing interning structures for the explicit-state kernels.
//
// The subset/antichain inclusion engines and the on-the-fly product spend
// their time asking "have I seen this state set / tuple before?". The
// previous answer was node-based std::unordered_map buckets holding owned
// std::vector payloads — one heap allocation per key plus a linear scan per
// probe. Here instead:
//
//   * IdTable — a flat open-addressing (linear-probe) table that maps
//     caller-computed hashes to dense 32-bit ids. Keys live in the caller's
//     own contiguous storage; the table stores only ids, so growth is a
//     single flat rehash and probes touch one cache line each.
//   * BitsetInterner — interns fixed-width bitsets (right-hand state sets of
//     a subset construction) into one contiguous word array, handing out
//     dense ids. Configurations then carry a 4-byte id instead of an owned
//     bitset, and equality is id comparison.
//   * U64KeySet — a flat hash set of 64-bit keys (e.g. packed
//     (left state, interned right id) pairs) for visited-set dedup.
//
// None of these are thread-safe; each kernel search owns its own.

#include <cstddef>
#include <cstdint>
#include <vector>

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

inline std::size_t hash_words(const std::uint64_t* words, std::size_t n) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= words[i] + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return static_cast<std::size_t>(h);
}

/// Interns fixed-width bitsets (`bits` bits each) into contiguous storage.
/// Dense ids are handed out in first-seen order, so callers can use them to
/// index side tables. Storage never shrinks and never moves ids.
class BitsetInterner {
 public:
  explicit BitsetInterner(std::size_t bits)
      : bits_(bits), words_per_((bits + 63) / 64) {}

  [[nodiscard]] std::size_t bits() const { return bits_; }
  [[nodiscard]] std::size_t words_per() const { return words_per_; }
  [[nodiscard]] std::size_t size() const { return table_.size(); }

  /// Word block of an interned id. Invalidated by the next intern() (the
  /// backing vector may grow) — copy out before stepping.
  [[nodiscard]] const std::uint64_t* words(std::uint32_t id) const {
    return storage_.data() + static_cast<std::size_t>(id) * words_per_;
  }

  /// Looks up the set held in `w` without inserting. Returns the id, or
  /// IdTable::kNoId when the set has never been interned.
  [[nodiscard]] std::uint32_t find(const std::uint64_t* w) const {
    const std::size_t h = hash_words(w, words_per_);
    return table_.find(h, [&](std::uint32_t id) {
      return equal_words(words(id), w);
    });
  }

  /// Interns the set held in `w` (words_per() words). Returns (id, fresh).
  std::pair<std::uint32_t, bool> intern(const std::uint64_t* w) {
    const std::size_t h = hash_words(w, words_per_);
    const std::uint32_t found = table_.find(h, [&](std::uint32_t id) {
      return equal_words(words(id), w);
    });
    if (found != IdTable::kNoId) return {found, false};
    const auto id = static_cast<std::uint32_t>(size());
    storage_.insert(storage_.end(), w, w + words_per_);
    table_.insert(h, id,
                  [&](std::uint32_t x) { return hash_words(words(x), words_per_); });
    return {id, true};
  }

  /// True when set `a` ⊆ set `b`.
  [[nodiscard]] bool is_subset(std::uint32_t a, std::uint32_t b) const {
    const std::uint64_t* wa = words(a);
    const std::uint64_t* wb = words(b);
    for (std::size_t i = 0; i < words_per_; ++i) {
      if ((wa[i] & ~wb[i]) != 0) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t bytes() const {
    return storage_.capacity() * sizeof(std::uint64_t) + table_.bytes();
  }

 private:
  [[nodiscard]] bool equal_words(const std::uint64_t* a,
                                 const std::uint64_t* b) const {
    for (std::size_t i = 0; i < words_per_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

  std::size_t bits_;
  std::size_t words_per_;
  std::vector<std::uint64_t> storage_;  // size() * words_per_
  IdTable table_;
};

/// Flat open-addressing set of 64-bit keys (visited-set dedup). Keys are
/// stored inline, ids are implicit.
class U64KeySet {
 public:
  /// Inserts `key`; returns true when it was new. The all-ones key is
  /// reserved as the empty sentinel and must not be inserted.
  bool insert(std::uint64_t key) {
    const std::size_t h = hash_u64(key);
    const std::uint32_t found =
        table_.find(h, [&](std::uint32_t id) { return keys_[id] == key; });
    if (found != IdTable::kNoId) return false;
    const auto id = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(key);
    table_.insert(h, id,
                  [&](std::uint32_t x) { return hash_u64(keys_[x]); });
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    return table_.find(hash_u64(key), [&](std::uint32_t id) {
             return keys_[id] == key;
           }) != IdTable::kNoId;
  }

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] std::size_t bytes() const {
    return keys_.capacity() * sizeof(std::uint64_t) + table_.bytes();
  }

 private:
  static std::size_t hash_u64(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }

  std::vector<std::uint64_t> keys_;
  IdTable table_;
};

}  // namespace rlv
