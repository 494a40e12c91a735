#pragma once

// Numeric command-line values, read one strict way by every rlv tool: the
// value must be a plain decimal digit string inside the flag's range. A
// sign, a suffix, an empty string or an out-of-range value is rejected, so
// a typo prints usage instead of becoming 0, a wrapped-around count or an
// endless deadline.

#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>

namespace rlv::cli {

/// The largest millisecond count a flag takes: 100 years. A steady_clock
/// deadline that far out still fits its signed nanosecond count.
inline constexpr std::uint64_t kMaxMillis = 100ULL * 365 * 24 * 3600 * 1000;

/// The most threads a flag may ask for (--jobs, --connections).
inline constexpr std::uint64_t kMaxThreads = 1024;

/// Stores `text` in `out` when it is all decimal digits and in [min, max]
/// and in what `out` holds; returns false, leaving `out` as it was,
/// otherwise.
template <typename T>
[[nodiscard]] bool parse_number(const char* text, T& out,
                                std::uint64_t min = 0,
                                std::uint64_t max = UINT64_MAX) {
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  // from_chars into an unsigned type takes no sign, space or prefix.
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc() || stop != end || value < min || value > max ||
      value > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

}  // namespace rlv::cli
