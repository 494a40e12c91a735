#pragma once

// Alphabets and symbols. A Symbol is a dense integer id interned in an
// Alphabet, which keeps the human-readable action names (e.g. "request",
// "result") used throughout the paper's examples. Alphabets are shared
// immutably-by-convention between automata via shared_ptr; symbols from
// different alphabets must not be mixed (checked by assertions at the
// automaton layer where cheap).

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rlv {

using Symbol = std::uint32_t;

/// A finite word over some alphabet, as a sequence of symbol ids.
using Word = std::vector<Symbol>;

class Alphabet {
 public:
  Alphabet() = default;

  /// Builds an alphabet from a list of distinct symbol names.
  static std::shared_ptr<Alphabet> make(
      std::initializer_list<std::string_view> names);
  static std::shared_ptr<Alphabet> make(
      const std::vector<std::string>& names);

  /// Returns the id for `name`, interning it if new.
  Symbol intern(std::string_view name);

  /// Returns the id for `name`; throws std::invalid_argument when the name
  /// was never interned (an assert would vanish under NDEBUG and read past
  /// the map's end iterator).
  [[nodiscard]] Symbol id(std::string_view name) const;

  /// True when `name` is already interned.
  [[nodiscard]] bool contains(std::string_view name) const {
    return find(name).has_value();
  }

  /// The id for `name`, or nullopt when it was never interned: one hash
  /// probe, no std::string built.
  [[nodiscard]] std::optional<Symbol> find(std::string_view name) const;

  [[nodiscard]] const std::string& name(Symbol s) const {
    assert(s < names_.size());
    return names_[s];
  }

  [[nodiscard]] std::size_t size() const { return names_.size(); }

  /// Formats a word as dot-separated action names ("lock.request.no").
  [[nodiscard]] std::string format(const Word& w) const;

 private:
  /// Hashes std::string keys and string_view probes alike, so lookups by
  /// view need no std::string temporary.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, Symbol, NameHash, std::equal_to<>> ids_;
};

using AlphabetRef = std::shared_ptr<const Alphabet>;

/// Precondition guard for operations that require both operands to share
/// one alphabet *object* (symbol ids are only comparable then). Throws
/// std::invalid_argument — unlike the asserts it replaces, this survives
/// NDEBUG builds, where a mismatch would otherwise index out of range or
/// silently return garbage.
inline void require_same_alphabet(const AlphabetRef& a, const AlphabetRef& b,
                                  const char* where) {
  if (a != b) {
    throw std::invalid_argument(
        std::string(where) +
        ": operands must share one alphabet object (use remap_alphabet)");
  }
}

}  // namespace rlv
