#pragma once

// hash_combine: folds one value into a running hash. The interned keys of
// the explicit-state kernels (product pairs and tuples, cache keys) hash
// their fields through it.

#include <cstddef>

namespace rlv {

inline std::size_t hash_combine(std::size_t seed, std::size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace rlv
