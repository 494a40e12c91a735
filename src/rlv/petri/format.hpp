#pragma once

// Textual Petri-net format — the `.pn` files accepted by `rlv_check
// --petri-file`, `rlv_loadgen --petri`, and the scenario builders' mirror
// serializer. Line-oriented, strict in the rlv::net::json reader tradition:
// bounded names/weights/counts, duplicate rejection, and every rejection
// carries the 1-based line it happened on. Untrusted input must never OOM
// or silently mislabel a transition.
//
//   # comment (also after any line)
//   net mutex                  optional, at most once
//   place fork_0 1             place with initial token count (default 0)
//   trans hungry_0             transition observed as action "hungry_0"
//   in thinking_0              arcs attach to the most recent trans;
//   out hungry_0 2             trailing weight defaults to 1
//   read fork_1
//   hide hungry_0 left_0       labels the derived abstraction hides (Σ→Σ'
//                              ∪ {ε}); may repeat, accumulates
//
// Names match [A-Za-z0-9_.-]+ and are at most kMaxNameLength bytes.
// Duplicate place names, duplicate same-kind arcs, arcs before the first
// trans, hides of labels no transition carries, weight/count 0 or above
// kMaxTokens, and unknown directives are all hard errors.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rlv/petri/net.hpp"
#include "rlv/util/budget.hpp"

namespace rlv::petri {

inline constexpr std::size_t kMaxNameLength = 128;
inline constexpr std::uint32_t kMaxTokens = 1000000;
inline constexpr std::size_t kMaxPlaces = 100000;
inline constexpr std::size_t kMaxTransitions = 100000;
inline constexpr std::size_t kMaxLines = 1u << 20;

/// Raised on any malformed input; `line()` is 1-based (0 = whole input,
/// e.g. the line cap).
class NetParseError : public std::runtime_error {
 public:
  NetParseError(std::string message, std::size_t line);
  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// A parsed net file: the net, its optional name, and the labels its
/// abstraction annotation hides (distinct, in first-hide order).
struct NetFile {
  std::string name;
  PetriNet net;
  std::vector<std::string> hidden;
};

/// Parses the textual format above. Throws NetParseError; never partial.
/// With a Budget, each place and transition is charged as one state under
/// Stage::kParse before it is added, and every line ticks the deadline, so
/// a hostile net trips ResourceExhausted before it is built.
[[nodiscard]] NetFile parse_net(std::string_view text,
                                Budget* budget = nullptr);

/// Canonical serialization; parse_net(serialize_net(f)) reproduces `f`.
[[nodiscard]] std::string serialize_net(const NetFile& file);

}  // namespace rlv::petri
