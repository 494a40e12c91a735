#pragma once

// Recursive-descent parser for PLTL formulas.
//
// Grammar (loosest to tightest):
//   iff     :=  implies ('<->' implies)*
//   implies :=  or ('->' implies)?                 (right associative)
//   or      :=  and (('|' | '||') and)*
//   and     :=  bin (('&' | '&&') bin)*
//   bin     :=  unary (('U' | 'R' | 'B') bin)?     (right associative)
//   unary   :=  ('!' | 'X' | 'F' | 'G') unary | primary
//   primary :=  'true' | 'false' | atom | '(' iff ')'
//   atom    :=  [a-zA-Z_][a-zA-Z0-9_]*  not a reserved word
//
// 'B' is the paper's "before" operator: ξ B ζ = ¬(¬ξ U ζ).

#include <stdexcept>
#include <string>
#include <string_view>

#include "rlv/ltl/ast.hpp"

namespace rlv {

class LtlParseError : public std::runtime_error {
 public:
  LtlParseError(const std::string& message, std::size_t position)
      : std::runtime_error(message + " at offset " + std::to_string(position)),
        position_(position) {}

  [[nodiscard]] std::size_t position() const { return position_; }

 private:
  std::size_t position_;
};

/// Parses `text` into a formula. Throws LtlParseError on malformed input,
/// and on input nested more than 1000 levels deep ("nesting too deep"):
/// each prefix operator, parenthesis and right-nested U/R/B/-> operand is
/// one level.
[[nodiscard]] Formula parse_ltl(std::string_view text);

}  // namespace rlv
