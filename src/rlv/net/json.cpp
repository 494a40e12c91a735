#include "rlv/net/json.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>

namespace rlv::net {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// The bytes that end a plain run inside a string: the closing quote, an
/// escape, and the control bytes RFC 8259 forbids unescaped.
constexpr std::array<bool, 256> kEndsRun = [] {
  std::array<bool, 256> ends{};
  for (int c = 0; c < 0x20; ++c) ends[c] = true;
  ends['"'] = ends['\\'] = true;
  return ends;
}();

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

/// The value of a slice scan_number accepted, as strtod reads it.
double to_double(std::string_view number) {
  // Up to 15 plain digits are exact in a double: no strtod needed.
  if (number.size() <= 15 &&
      number.find_first_not_of("0123456789") == std::string_view::npos) {
    std::uint64_t n = 0;
    for (const char c : number) n = n * 10 + static_cast<unsigned>(c - '0');
    return static_cast<double>(n);
  }
  // strtod needs a NUL terminator.
  char small[64];
  if (number.size() < sizeof small) {
    std::memcpy(small, number.data(), number.size());
    small[number.size()] = '\0';
    return std::strtod(small, nullptr);
  }
  return std::strtod(std::string(number).c_str(), nullptr);
}

JsonValue build(JsonReader& reader) {
  JsonValue value;
  value.kind = reader.peek();
  switch (value.kind) {
    case JsonKind::kObject: {
      reader.begin_object();
      for (std::string_view key; reader.next_key(key);) {
        std::string name(key);  // before the value overwrites an escaped key
        value.object.emplace_back(std::move(name), build(reader));
      }
      break;
    }
    case JsonKind::kArray:
      reader.begin_array();
      while (reader.next_element()) value.array.push_back(build(reader));
      break;
    case JsonKind::kString:
      value.string = reader.string();
      break;
    case JsonKind::kNumber:
      value.number = reader.number();
      break;
    case JsonKind::kBool:
      value.boolean = reader.boolean();
      break;
    case JsonKind::kNull:
      reader.null();
      break;
  }
  return value;
}

}  // namespace

std::string kind_mismatch(const char* wanted, JsonKind got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  return std::string("expected ") + wanted + ", got " +
         kNames[static_cast<std::size_t>(got)];
}

std::uint64_t json_uint(double number) {
  // From 2^53 on doubles skip integers (2^53 + 1 parses as 2^53).
  if (!std::isfinite(number) || number < 0 ||
      number != std::floor(number) || number >= 0x1p53) {
    throw std::runtime_error("expected an integer from 0 to 2^53 - 1");
  }
  return static_cast<std::uint64_t>(number);
}

// --- JsonReader -------------------------------------------------------------

void JsonReader::fail(const std::string& message) const {
  throw JsonError(message, pos_);
}

void JsonReader::skip_whitespace() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

char JsonReader::peek_char() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

char JsonReader::take() {
  const char c = peek_char();
  ++pos_;
  return c;
}

JsonKind JsonReader::peek() {
  if (depth_ > kMaxDepth) fail("nesting too deep");
  skip_whitespace();
  const char c = peek_char();
  switch (c) {
    case '{':
      return JsonKind::kObject;
    case '[':
      return JsonKind::kArray;
    case '"':
      return JsonKind::kString;
    case 't':
    case 'f':
      return JsonKind::kBool;
    case 'n':
      return JsonKind::kNull;
    default:
      if (c != '-' && !is_digit(c)) fail("invalid number");
      return JsonKind::kNumber;
  }
}

void JsonReader::expect(JsonKind kind, const char* name) {
  const JsonKind got = peek();
  if (got != kind) throw std::runtime_error(kind_mismatch(name, got));
}

void JsonReader::begin_object() {
  expect(JsonKind::kObject, "object");
  ++pos_;
  frames_[++depth_] = {keys_.size(), key_bytes_.size()};
  first_ = true;
}

bool JsonReader::next_key(std::string_view& key) {
  skip_whitespace();
  bool closed = false;
  if (first_) {
    first_ = false;
    closed = peek_char() == '}';
    if (closed) ++pos_;
  } else {
    const char c = take();
    closed = c == '}';
    if (!closed) {
      if (c != ',') fail("expected ',' or '}'");
      skip_whitespace();
    }
  }
  if (closed) {
    const Frame& frame = frames_[depth_--];
    keys_.resize(frame.keys);
    key_bytes_.resize(frame.bytes);
    return false;
  }
  if (peek_char() != '"') fail("expected object key");
  key = read_string();
  remember_key(key);
  skip_whitespace();
  if (take() != ':') fail("expected ':'");
  return true;
}

void JsonReader::remember_key(std::string_view key) {
  const Frame& frame = frames_[depth_];
  for (std::size_t i = frame.keys; i < keys_.size(); ++i) {
    const Key& seen = keys_[i];
    const std::string_view name =
        std::string_view(seen.owned ? key_bytes_ : text_)
            .substr(seen.offset, seen.size);
    if (name == key) fail("duplicate object key '" + std::string(key) + "'");
  }
  if (escaped_) {
    keys_.push_back({key_bytes_.size(), key.size(), true});
    key_bytes_ += key;
  } else {
    keys_.push_back({static_cast<std::size_t>(key.data() - text_.data()),
                     key.size(), false});
  }
}

void JsonReader::begin_array() {
  expect(JsonKind::kArray, "array");
  ++pos_;
  ++depth_;
  first_ = true;
}

bool JsonReader::next_element() {
  skip_whitespace();
  if (first_) {
    first_ = false;
    if (peek_char() != ']') return true;
    ++pos_;
  } else {
    const char c = take();
    if (c == ',') return true;
    if (c != ']') fail("expected ',' or ']'");
  }
  --depth_;
  return false;
}

std::string_view JsonReader::string() {
  expect(JsonKind::kString, "string");
  return read_string();
}

std::uint32_t JsonReader::read_hex4() {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = take();
    value <<= 4;
    if (is_digit(c)) {
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

std::string_view JsonReader::read_string() {
  ++pos_;  // '"'
  const std::size_t start = pos_;
  escaped_ = false;
  while (true) {
    // Copy the run up to the next quote, escape or control byte in bulk.
    const std::size_t run = pos_;
    while (pos_ < text_.size() &&
           !kEndsRun[static_cast<unsigned char>(text_[pos_])]) {
      ++pos_;
    }
    if (escaped_) buf_.append(text_, run, pos_ - run);
    const char c = take();
    if (c == '"') {
      return escaped_ ? std::string_view(buf_)
                      : text_.substr(start, pos_ - 1 - start);
    }
    if (c != '\\') fail("unescaped control character in string");
    if (!escaped_) {
      buf_.assign(text_, start, pos_ - 1 - start);
      escaped_ = true;
    }
    const char escape = take();
    switch (escape) {
      case '"':
      case '\\':
      case '/':
        buf_ += escape;
        break;
      case 'b':
        buf_ += '\b';
        break;
      case 'f':
        buf_ += '\f';
        break;
      case 'n':
        buf_ += '\n';
        break;
      case 'r':
        buf_ += '\r';
        break;
      case 't':
        buf_ += '\t';
        break;
      case 'u': {
        std::uint32_t cp = read_hex4();
        if (cp >= 0xd800 && cp <= 0xdbff) {
          // High surrogate: a low surrogate must follow.
          if (take() != '\\' || take() != 'u') fail("unpaired surrogate");
          const std::uint32_t low = read_hex4();
          if (low < 0xdc00 || low > 0xdfff) fail("unpaired surrogate");
          cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
        } else if (cp >= 0xdc00 && cp <= 0xdfff) {
          fail("unpaired surrogate");
        }
        append_utf8(buf_, cp);
        break;
      }
      default:
        fail("invalid escape");
    }
  }
}

std::string_view JsonReader::scan_number() {
  const std::size_t start = pos_;
  const auto digits = [this] {
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) fail("invalid number");
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
  };
  if (text_[pos_] == '-') ++pos_;
  if (pos_ < text_.size() && text_[pos_] == '0') {
    ++pos_;
  } else {
    digits();
  }
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    digits();
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    digits();
  }
  return text_.substr(start, pos_ - start);
}

double JsonReader::number() {
  expect(JsonKind::kNumber, "number");
  return to_double(scan_number());
}

void JsonReader::expect_literal(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) fail("invalid literal");
  pos_ += literal.size();
}

bool JsonReader::boolean() {
  expect(JsonKind::kBool, "bool");
  const bool value = text_[pos_] == 't';
  expect_literal(value ? "true" : "false");
  return value;
}

void JsonReader::null() {
  expect(JsonKind::kNull, "null");
  expect_literal("null");
}

void JsonReader::skip() {
  switch (peek()) {
    case JsonKind::kObject:
      begin_object();
      for (std::string_view key; next_key(key);) skip();
      return;
    case JsonKind::kArray:
      begin_array();
      while (next_element()) skip();
      return;
    case JsonKind::kString:
      (void)read_string();
      return;
    case JsonKind::kNumber:
      (void)scan_number();
      return;
    case JsonKind::kBool:
      (void)boolean();
      return;
    case JsonKind::kNull:
      null();
      return;
  }
}

void JsonReader::finish() {
  skip_whitespace();
  if (pos_ != text_.size()) fail("trailing bytes after JSON document");
}

// --- JsonValue --------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

const std::string& JsonValue::as_string() const {
  if (kind != Kind::kString) {
    throw std::runtime_error(kind_mismatch("string", kind));
  }
  return string;
}

bool JsonValue::as_bool() const {
  if (kind != Kind::kBool) {
    throw std::runtime_error(kind_mismatch("bool", kind));
  }
  return boolean;
}

double JsonValue::as_number() const {
  if (kind != Kind::kNumber) {
    throw std::runtime_error(kind_mismatch("number", kind));
  }
  return number;
}

std::uint64_t JsonValue::as_uint() const { return json_uint(as_number()); }

JsonValue parse_json(std::string_view text) {
  JsonReader reader(text);
  JsonValue root = build(reader);
  reader.finish();
  return root;
}

}  // namespace rlv::net
