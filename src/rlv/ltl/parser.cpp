#include "rlv/ltl/parser.hpp"

#include <cctype>

namespace rlv {

namespace {

bool is_atom_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_atom_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Bound on the parser's recursion: every prefix operator, parenthesis and
/// right-nested U/R/B/-> operand is one level deeper. Far beyond any
/// formula a person writes, far below what the threads that parse (the
/// serving threads among them) have stack for: past it the input is an
/// LtlParseError, not a stack overflow.
constexpr std::size_t kMaxDepth = 1000;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Formula parse() {
    Formula f = parse_iff();
    skip_ws();
    if (pos_ != text_.size()) {
      throw LtlParseError("unexpected trailing input", pos_);
    }
    return f;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(std::string_view token) {
    skip_ws();
    if (text_.substr(pos_).starts_with(token)) {
      // Word tokens must not run into a following identifier character.
      if (is_atom_start(token.front())) {
        const std::size_t end = pos_ + token.size();
        if (end < text_.size() && is_atom_char(text_[end])) return false;
      }
      pos_ += token.size();
      return true;
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& message) {
    throw LtlParseError(message, pos_);
  }

  /// Parses a nested operand with `rule`, one level deeper.
  Formula nested(Formula (Parser::*rule)()) {
    if (depth_ == kMaxDepth) fail("nesting too deep");
    ++depth_;
    Formula f = (this->*rule)();
    --depth_;
    return f;
  }

  Formula parse_iff() {
    Formula f = parse_implies();
    while (eat("<->")) f = f_iff(f, parse_implies());
    return f;
  }

  Formula parse_implies() {
    Formula f = parse_or();
    if (eat("->")) return f_implies(f, nested(&Parser::parse_implies));
    return f;
  }

  Formula parse_or() {
    Formula f = parse_and();
    while (true) {
      skip_ws();
      // '||' or single '|', but not the start of '|?' others.
      if (eat("||") || eat("|")) {
        f = f_or(f, parse_and());
      } else {
        return f;
      }
    }
  }

  Formula parse_and() {
    Formula f = parse_bin();
    while (eat("&&") || eat("&")) f = f_and(f, parse_bin());
    return f;
  }

  Formula parse_bin() {
    Formula f = parse_unary();
    if (eat("U")) return f_until(f, nested(&Parser::parse_bin));
    if (eat("R")) return f_release(f, nested(&Parser::parse_bin));
    if (eat("B")) return f_before(f, nested(&Parser::parse_bin));
    return f;
  }

  Formula parse_unary() {
    if (eat("!")) return f_not(nested(&Parser::parse_unary));
    if (eat("X")) return f_next(nested(&Parser::parse_unary));
    if (eat("F")) return f_eventually(nested(&Parser::parse_unary));
    if (eat("G")) return f_always(nested(&Parser::parse_unary));
    return parse_primary();
  }

  Formula parse_primary() {
    skip_ws();
    if (eat("(")) {
      Formula f = nested(&Parser::parse_iff);
      if (!eat(")")) fail("expected ')'");
      return f;
    }
    if (eat("true")) return f_true();
    if (eat("false")) return f_false();
    if (pos_ < text_.size() && is_atom_start(text_[pos_])) {
      const std::size_t start = pos_;
      while (pos_ < text_.size() && is_atom_char(text_[pos_])) ++pos_;
      return f_atom(text_.substr(start, pos_ - start));
    }
    fail("expected formula");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Formula parse_ltl(std::string_view text) { return Parser(text).parse(); }

}  // namespace rlv
