#pragma once

// Concurrent memoization cache for the query engine. Each cache maps a
// structural key (see fingerprint.hpp) to a shared, immutable value —
// a parsed system, an LTL translation, a trimmed pre(L_ω) automaton, or a
// final verdict. Guarantees:
//
//   * compute-once: concurrent requests for the same key run the compute
//     function exactly once; the losers block on a shared_future and get
//     the winner's value (so a batch of identical queries does the
//     expensive automaton construction a single time even across threads);
//   * values are shared_ptr<const V> — handed out without copying and kept
//     alive by the caller even if the entry is evicted meanwhile;
//   * bounded size with least-recently-used eviction once `capacity`
//     resident entries exist (in-flight computations are never evicted).
//     Eviction is O(1): resident entries are threaded on an intrusive LRU
//     list per shard (unordered_map nodes are pointer-stable, so the list
//     links straight into the map's entries — no second allocation and no
//     full-table scan to find a victim);
//   * sharded locking: the key hash picks one of `shards` (a power of
//     two) independent {mutex, map, LRU} shards, so a warm serving
//     workload's lookups — most of them hits — only contend when they
//     land on the same shard. `capacity` stays the *total* across shards;
//     the single-shard default is bit-compatible with the historical
//     whole-cache LRU order (the MemoCache unit tests pin that down);
//   * a non-computing lookup (find) for callers that want a resident value
//     or nothing — the engine's O(request bytes) hit path; it counts
//     nothing itself, so a lookup that falls through is not counted twice;
//   * hit/miss/coalesced/eviction counters, aggregated into EngineStats.
//     Counters are relaxed atomics bumped under the shard lock but read
//     without it, so a `stats` snapshot never stalls a worker mid-lookup.
//     A hit means the value was resident; a lookup that lands on an entry
//     whose computation is still in flight is counted as `coalesced`, not
//     as a hit — the caller still waits roughly as long as the computing
//     thread, so folding those into hits overstated cache effectiveness
//     under contention.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rlv {

struct CacheCounters {
  std::uint64_t hits = 0;       // resident value returned immediately
  std::uint64_t coalesced = 0;  // joined an in-flight computation
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  CacheCounters& operator+=(const CacheCounters& o) {
    hits += o.hits;
    coalesced += o.coalesced;
    misses += o.misses;
    evictions += o.evictions;
    return *this;
  }
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class MemoCache {
 public:
  /// `capacity` bounds the TOTAL resident entries across all shards;
  /// `shards` is rounded up to a power of two. With the default single
  /// shard the eviction order is exactly the classic whole-cache LRU.
  explicit MemoCache(std::size_t capacity, std::size_t shards = 1) {
    std::size_t rounded = 1;
    while (rounded < shards && rounded < kMaxShards) rounded <<= 1;
    shard_mask_ = rounded - 1;
    // Distribute the budget; every shard gets at least one slot so a
    // tiny capacity with many shards still caches (it may then hold up
    // to `shards` entries total — capacity is a bound per shard).
    shard_capacity_ = (capacity + rounded - 1) / rounded;
    if (shard_capacity_ == 0) shard_capacity_ = 1;
    shards_.reserve(rounded);
    for (std::size_t i = 0; i < rounded; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  /// Returns the cached value for `key`, computing it with `fn` on a miss.
  /// `fn` is invoked outside the cache lock; exceptions propagate to every
  /// waiter and the entry is removed so a later call can retry. A hit
  /// allocates nothing: the promise (and its shared state) is built only
  /// on the miss branch.
  template <typename Fn>
  std::shared_ptr<const Value> get_or_compute(const Key& key, Fn&& fn) {
    Shard& shard = shard_for(key);
    std::optional<std::promise<std::shared_ptr<const Value>>> promise;
    std::shared_future<std::shared_ptr<const Value>> future;
    {
      std::lock_guard lock(shard.mutex);
      auto it = shard.entries.find(key);
      if (it != shard.entries.end()) {
        Entry& entry = it->second;
        if (entry.resident) {
          shard.hits.fetch_add(1, std::memory_order_relaxed);
          lru_move_back(shard, &entry);
          return entry.future.get();  // ready: never blocks
        }
        shard.coalesced.fetch_add(1, std::memory_order_relaxed);
        future = entry.future;
      } else {
        shard.misses.fetch_add(1, std::memory_order_relaxed);
        promise.emplace();
        future = promise->get_future().share();
        auto [pos, ok] = shard.entries.emplace(key, Entry{});
        pos->second.future = future;
        pos->second.key = &pos->first;
      }
    }
    if (!promise) return future.get();

    try {
      auto value = std::make_shared<const Value>(fn());
      promise->set_value(value);
      std::lock_guard lock(shard.mutex);
      auto it = shard.entries.find(key);
      if (it != shard.entries.end()) {
        it->second.resident = true;
        lru_push_back(shard, &it->second);
        evict_locked(shard);
      }
      return value;
    } catch (...) {
      {
        std::lock_guard lock(shard.mutex);
        shard.entries.erase(key);  // never entered the LRU list
      }
      // Erased before the waiters wake, so one that retries meets a clean
      // miss instead of this failed computation.
      promise->set_exception(std::current_exception());
      throw;
    }
  }

  /// get_or_compute, except that a caller who joined another caller's
  /// computation and got `Error` from it retries once with its own `fn`.
  /// For failures that belong to the computing caller rather than to the
  /// key, such as a per-query resource budget running out; the caller's
  /// own `Error` propagates as usual.
  template <typename Error, typename Fn>
  std::shared_ptr<const Value> get_or_compute_own(const Key& key, Fn&& fn) {
    bool ran = false;
    try {
      return get_or_compute(key, [&] {
        ran = true;
        return fn();
      });
    } catch (const Error&) {
      if (ran) throw;
    }
    return get_or_compute(key, fn);
  }

  /// Non-computing lookup: the resident value for `key`, or null when the
  /// key is absent or its computation is still in flight. A found value is
  /// refreshed in the LRU order like a hit, but nothing is counted — a
  /// lookup that falls through to get_or_compute would otherwise count
  /// twice. The caller records the hit with count_hit once it knows the
  /// lookup served.
  [[nodiscard]] std::shared_ptr<const Value> find(const Key& key) {
    Shard& shard = shard_for(key);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end() || !it->second.resident) return nullptr;
    lru_move_back(shard, &it->second);
    return it->second.future.get();
  }

  /// Counts one hit for `key`, as get_or_compute does on a resident entry.
  void count_hit(const Key& key) {
    shard_for(key).hits.fetch_add(1, std::memory_order_relaxed);
  }

  /// Lock-free counter snapshot (each field relaxed — the totals are
  /// monotone and a snapshot mid-lookup is fine for observability).
  [[nodiscard]] CacheCounters counters() const {
    CacheCounters total;
    for (const auto& shard : shards_) {
      total.hits += shard->hits.load(std::memory_order_relaxed);
      total.coalesced += shard->coalesced.load(std::memory_order_relaxed);
      total.misses += shard->misses.load(std::memory_order_relaxed);
      total.evictions += shard->evictions.load(std::memory_order_relaxed);
    }
    return total;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard lock(shard->mutex);
      total += shard->entries.size();
    }
    return total;
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

 private:
  static constexpr std::size_t kMaxShards = 64;

  struct Entry {
    std::shared_future<std::shared_ptr<const Value>> future;
    bool resident = false;  // value ready; only resident entries are evicted
    // Intrusive LRU links (resident entries only). unordered_map is
    // node-based, so Entry* and the key pointer survive rehash; `key`
    // lets eviction erase by key without a reverse lookup structure.
    Entry* lru_prev = nullptr;
    Entry* lru_next = nullptr;
    const Key* key = nullptr;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, Entry, Hash> entries;
    Entry* lru_head = nullptr;  // least recently used resident entry
    Entry* lru_tail = nullptr;  // most recently used
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> coalesced{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
  };

  [[nodiscard]] Shard& shard_for(const Key& key) const {
    // The map's bucket index uses the low bits of the same hash; fold the
    // high bits in so shard choice and bucket choice decorrelate.
    const std::size_t h = Hash{}(key);
    return *shards_[(h ^ (h >> 16) ^ (h >> 32)) & shard_mask_];
  }

  static void lru_unlink(Shard& shard, Entry* entry) {
    (entry->lru_prev ? entry->lru_prev->lru_next : shard.lru_head) =
        entry->lru_next;
    (entry->lru_next ? entry->lru_next->lru_prev : shard.lru_tail) =
        entry->lru_prev;
    entry->lru_prev = entry->lru_next = nullptr;
  }

  static void lru_push_back(Shard& shard, Entry* entry) {
    entry->lru_prev = shard.lru_tail;
    entry->lru_next = nullptr;
    (shard.lru_tail ? shard.lru_tail->lru_next : shard.lru_head) = entry;
    shard.lru_tail = entry;
  }

  static void lru_move_back(Shard& shard, Entry* entry) {
    if (shard.lru_tail == entry) return;
    lru_unlink(shard, entry);
    lru_push_back(shard, entry);
  }

  void evict_locked(Shard& shard) {
    while (shard.entries.size() > shard_capacity_ && shard.lru_head) {
      Entry* victim = shard.lru_head;  // in-flight entries are never listed
      lru_unlink(shard, victim);
      shard.entries.erase(*victim->key);
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
  std::size_t shard_capacity_ = 0;
};

}  // namespace rlv
