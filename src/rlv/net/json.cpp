#include "rlv/net/json.hpp"

#include <cmath>
#include <cstdlib>

namespace rlv::net {

namespace {

constexpr std::size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing bytes after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonError(message, pos_);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("invalid literal");
    }
    pos_ += literal.size();
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    JsonValue value;
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.string = parse_string();
        return value;
      case 't':
        expect_literal("true");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
        return value;
      case 'f':
        expect_literal("false");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = false;
        return value;
      case 'n':
        expect_literal("null");
        value.kind = JsonValue::Kind::kNull;
        return value;
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    take();  // '{'
    skip_whitespace();
    if (peek() == '}') {
      take();
      return value;
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      for (const auto& [existing, unused] : value.object) {
        if (existing == key) fail("duplicate object key '" + key + "'");
      }
      skip_whitespace();
      if (take() != ':') fail("expected ':'");
      value.object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char c = take();
      if (c == '}') return value;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array(std::size_t depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    take();  // '['
    skip_whitespace();
    if (peek() == ']') {
      take();
      return value;
    }
    while (true) {
      value.array.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = take();
      if (c == ']') return value;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return value;
  }

  std::string parse_string() {
    take();  // '"'
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char escape = take();
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out += escape;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: a low surrogate must follow.
            if (take() != '\\' || take() != 'u') fail("unpaired surrogate");
            const std::uint32_t low = parse_hex4();
            if (low < 0xdc00 || low > 0xdfff) fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("invalid escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      fail("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("invalid number");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("invalid number");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    // The slice is a valid JSON number, which is also a valid strtod input;
    // copy for the NUL terminator strtod needs.
    const std::string slice(text_.substr(start, pos_ - start));
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = std::strtod(slice.c_str(), nullptr);
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void kind_mismatch(const char* wanted, JsonValue::Kind got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw std::runtime_error(std::string("expected ") + wanted + ", got " +
                           kNames[static_cast<std::size_t>(got)]);
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

const std::string& JsonValue::as_string() const {
  if (kind != Kind::kString) kind_mismatch("string", kind);
  return string;
}

bool JsonValue::as_bool() const {
  if (kind != Kind::kBool) kind_mismatch("bool", kind);
  return boolean;
}

double JsonValue::as_number() const {
  if (kind != Kind::kNumber) kind_mismatch("number", kind);
  return number;
}

std::uint64_t JsonValue::as_uint() const {
  if (kind != Kind::kNumber) kind_mismatch("number", kind);
  // From 2^53 on doubles skip integers (2^53 + 1 parses as 2^53).
  if (!std::isfinite(number) || number < 0 ||
      number != std::floor(number) || number >= 0x1p53) {
    throw std::runtime_error("expected an integer from 0 to 2^53 - 1");
  }
  return static_cast<std::uint64_t>(number);
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace rlv::net
