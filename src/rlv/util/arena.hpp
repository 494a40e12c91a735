#pragma once

// Per-query bump arena for the inclusion searches' witness path nodes. A
// subset or antichain search allocates one small, identically-shaped
// `(symbol, parent)` node per explored configuration, and their lifetimes
// all end together at verdict or budget-exhaustion time. Routing them
// through the global allocator costs one malloc/free round-trip per node
// plus pointer scatter; the arena hands out pointers by bumping a cursor
// through geometrically-growing chunks and frees everything wholesale when
// the owning search dies (a 200k-node witness chain is never destructed
// recursively). Interned tuples live in TupleInterner (util/intern.hpp).
//
// Restrictions, by design:
//   * only trivially-destructible payloads (create<T> enforces this) — the
//     arena never runs destructors;
//   * not thread-safe — each kernel search owns its arena;
//   * pointers stay valid until reset()/destruction (chunks never move).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace rlv {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = std::size_t{16} << 10;

  explicit Arena(std::size_t first_chunk_bytes = kDefaultChunkBytes)
      : next_chunk_bytes_(first_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// Returns `bytes` bytes aligned to `align` (a power of two). The memory
  /// is uninitialized and owned by the arena.
  void* allocate(std::size_t bytes, std::size_t align) {
    std::size_t cursor = (cursor_ + (align - 1)) & ~(align - 1);
    if (chunks_.empty() || cursor + bytes > chunks_.back().size) {
      grow(bytes + align);
      cursor = (cursor_ + (align - 1)) & ~(align - 1);
    }
    std::byte* p = chunks_.back().data.get() + cursor;
    cursor_ = cursor + bytes;
    allocated_ += bytes;
    return p;
  }

  /// Constructs a trivially-destructible T in the arena.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    void* p = allocate(sizeof(T), alignof(T));
    return ::new (p) T{std::forward<Args>(args)...};
  }

  /// Drops every allocation but keeps the largest chunk for reuse, so a
  /// kernel that runs many searches back to back stops growing once warm.
  void reset() {
    if (chunks_.size() > 1) {
      Chunk last = std::move(chunks_.back());
      chunks_.clear();
      chunks_.push_back(std::move(last));
    }
    cursor_ = 0;
    allocated_ = 0;
  }

  /// Total bytes handed out since construction/reset (live bytes: nothing
  /// is ever returned individually).
  [[nodiscard]] std::size_t bytes_allocated() const { return allocated_; }

  /// Total chunk capacity owned by the arena — the number that matters for
  /// peak-RSS accounting.
  [[nodiscard]] std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void grow(std::size_t at_least) {
    std::size_t size = next_chunk_bytes_;
    while (size < at_least) size *= 2;
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(size), size});
    // Geometric growth keeps the chunk count logarithmic in total bytes.
    next_chunk_bytes_ = size * 2;
    cursor_ = 0;
  }

  std::vector<Chunk> chunks_;
  std::size_t cursor_ = 0;       // within chunks_.back()
  std::size_t allocated_ = 0;
  std::size_t next_chunk_bytes_;
};

}  // namespace rlv
