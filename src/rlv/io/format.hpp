#pragma once

// Textual interchange format for transition systems and abstracting
// homomorphisms, plus GraphViz (DOT) export for rendering the paper's
// figures. Used by the rlv_check command-line tool and by downstream users
// who want to define systems without writing C++.
//
// System format (line oriented; '#' starts a comment):
//
//   alphabet: lock free request yes no result reject
//   states: 8
//   initial: 0
//   accepting: all            # or an explicit id list, for Büchi use
//   0 request 1               # transitions: <from> <action> <to>
//   1 yes 2
//
// Homomorphism format (relative to a source alphabet provided by the
// caller):
//
//   target: request result reject
//   map: request -> request   # rename
//   hide: lock free yes no    # map to ε (unlisted letters default to ε)

#include <stdexcept>
#include <string>
#include <string_view>

#include "rlv/hom/homomorphism.hpp"
#include "rlv/lang/nfa.hpp"
#include "rlv/omega/buchi.hpp"
#include "rlv/petri/net.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {

class IoError : public std::runtime_error {
 public:
  IoError(const std::string& message, std::size_t line)
      : std::runtime_error(message + " (line " + std::to_string(line) + ")"),
        line_(line) {}

  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Parses the system format. Throws IoError on malformed input. The
/// declared state count is charged to the optional Budget (under the
/// caller's current stage) before any state is allocated, so a text that
/// declares billions of states trips the cap instead of the allocator; the
/// allocation loop ticks the deadline, so a deadline alone stops it too.
[[nodiscard]] Nfa parse_system(std::string_view text,
                               Budget* budget = nullptr);

/// Serializes an automaton back into the system format (round-trips with
/// parse_system up to comments and ordering).
[[nodiscard]] std::string serialize_system(const Nfa& nfa);

/// Parses the homomorphism format against the given source alphabet.
[[nodiscard]] Homomorphism parse_homomorphism(std::string_view text,
                                              AlphabetRef source);

/// Büchi flavor of the system format: same syntax, with `accepting:`
/// interpreted as the Büchi acceptance set.
[[nodiscard]] Buchi parse_buchi(std::string_view text,
                                Budget* budget = nullptr);
[[nodiscard]] std::string serialize_buchi(const Buchi& buchi);

/// Human-readable annotated trace: follows `word` through the automaton
/// and prints, per step, the action and the set of states the runs can be
/// in; reports where (if anywhere) the word leaves the language of
/// prefixes. For a Lasso, the period is unrolled twice and marked.
[[nodiscard]] std::string explain_word(const Nfa& system, const Word& word);
[[nodiscard]] std::string explain_lasso(const Nfa& system, const Word& prefix,
                                        const Word& period);

/// GraphViz rendering: accepting states as double circles, the initial
/// state marked with an inbound arrow — matching the paper's diagrams
/// (shaded initial state).
[[nodiscard]] std::string to_dot(const Nfa& nfa, std::string_view name = "G");
[[nodiscard]] std::string to_dot(const Buchi& buchi,
                                 std::string_view name = "G");

/// Petri-net rendering: places as circles (token count inside), transitions
/// as boxes, read arcs dashed — the Figure 1 style.
[[nodiscard]] std::string to_dot(const PetriNet& net,
                                 std::string_view name = "N");

/// Hanoi Omega-Automata (HOA v1) export of a Büchi automaton, for interop
/// with external ω-automata tools. Each alphabet letter becomes one atomic
/// proposition; a transition on letter i is labeled with the exactly-one
/// cube (i & !j & ... for all j ≠ i).
[[nodiscard]] std::string to_hoa(const Buchi& buchi,
                                 std::string_view name = "rlv");

/// Reads a whole file; throws std::runtime_error when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

/// Drops one trailing '\r' — the normalization every line-oriented reader
/// must apply after splitting CRLF input on '\n'. Network clients and
/// Windows-edited batch files terminate lines with "\r\n"; the rlvd batch
/// reader and the rlv::net protocol both chomp through this one helper so
/// the two front ends can never diverge on line endings.
[[nodiscard]] std::string_view strip_cr(std::string_view line);

/// JSON string escaping (quotes, backslashes, and control characters per
/// RFC 8259), as the JsonWriter (rlv/io/json_writer.hpp) escapes every
/// string it writes — the writer is how the project emits JSON; this
/// returns the escaped text alone for callers that splice it themselves.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace rlv
