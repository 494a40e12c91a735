#pragma once

// The JSON reader of the rlv::net wire protocol. Requests arrive as one
// JSON object per line from untrusted clients, so reading is strict: RFC
// 8259 grammar with no extensions, nesting bounded at 64 levels, duplicate
// keys rejected in every object (skipped ones included), and every
// rejection a JsonError whose byte offset is safe to echo back.
//
// There is one tokenizer, JsonReader: a pull reader that hands out object
// and array boundaries, keys and scalars one at a time. Keys and strings
// come back as string_views into the input; only a string that holds an
// escape is unescaped, into a buffer the reader owns. parse_request and
// parse_response decode a line in one pass over it, building no tree.
//
// JsonValue/parse_json is a small DOM built over the same reader, kept for
// the benchmark harness and the tests, which inspect whole records.
// Writing goes through rlv::JsonWriter (rlv/io/json_writer.hpp).

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rlv::net {

class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& message, std::size_t offset)
      : std::runtime_error(message + " (at byte " + std::to_string(offset) +
                           ")"),
        offset_(offset) {}

  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

enum class JsonKind : std::uint8_t {
  kNull,
  kBool,
  kNumber,
  kString,
  kArray,
  kObject,
};

/// "expected <wanted>, got <kind>": the message of a typed read that finds
/// another kind of value (a std::runtime_error, not a JsonError: the
/// document is well formed).
[[nodiscard]] std::string kind_mismatch(const char* wanted, JsonKind got);

/// A number read as a protocol id or limit: an exact integer in [0, 2^53),
/// so that it reads back as sent. Throws std::runtime_error otherwise.
[[nodiscard]] std::uint64_t json_uint(double number);

/// Pulls one JSON document out of `text`, a value at a time:
///
///   JsonReader r(line);
///   r.begin_object();
///   for (std::string_view key; r.next_key(key);) {
///     if (key == "id") id = r.uint(); else r.skip();
///   }
///   r.finish();
///
/// Every method throws JsonError on malformed input, at the same offsets
/// for any caller. Typed reads (string(), number(), ...) throw
/// kind_mismatch on another kind of value; peek() tells the kind first.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// The kind of the value that starts here, not consumed. Call it where a
  /// value starts: at the root, after next_key(), or after next_element()
  /// returned true.
  [[nodiscard]] JsonKind peek();

  /// Enters an object; next_key() then yields its keys in order, each
  /// followed by its value, and returns false past the closing '}'.
  void begin_object();
  [[nodiscard]] bool next_key(std::string_view& key);

  /// Enters an array; next_element() returns true before each element and
  /// false past the closing ']'.
  void begin_array();
  [[nodiscard]] bool next_element();

  /// A string value. The view points into the input unless escaped() is
  /// true, when it points into the reader's buffer and lasts until the
  /// next string or key is read.
  [[nodiscard]] std::string_view string();
  [[nodiscard]] bool escaped() const { return escaped_; }
  [[nodiscard]] double number();
  [[nodiscard]] std::uint64_t uint() { return json_uint(number()); }
  [[nodiscard]] bool boolean();
  void null();

  /// Reads past one value of any kind, validating all of it.
  void skip();

  /// Requires that nothing but whitespace follows the document.
  void finish();

 private:
  /// Where an open object's keys start in keys_ and key_bytes_.
  struct Frame {
    std::size_t keys = 0;
    std::size_t bytes = 0;
  };
  /// A key seen in an open object: at `offset` in the input, or in
  /// key_bytes_ when it was escaped.
  struct Key {
    std::size_t offset = 0;
    std::size_t size = 0;
    bool owned = false;
  };
  static constexpr std::size_t kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& message) const;
  void skip_whitespace();
  char peek_char();
  char take();
  void expect(JsonKind kind, const char* name);
  void expect_literal(std::string_view literal);
  std::string_view read_string();
  std::uint32_t read_hex4();
  std::string_view scan_number();
  void remember_key(std::string_view key);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open containers
  bool first_ = false;     // just entered a container
  bool escaped_ = false;   // the last string read was unescaped into buf_
  std::string buf_;        // unescaped bytes of the last escaped string
  std::vector<Key> keys_;  // keys of every open object, outermost first
  std::string key_bytes_;  // unescaped bytes of escaped keys in keys_
  std::array<Frame, kMaxDepth + 2> frames_{};  // by depth, from 1
};

/// One parsed JSON value. Object member order is preserved; duplicate keys
/// are rejected at parse time (a client sending {"id":1,"id":2} is trying
/// to confuse something).
struct JsonValue {
  using Kind = JsonKind;

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Typed accessors: throw std::runtime_error (with the offending kind
  /// named) on mismatch. as_uint also rejects all but exact integers in
  /// [0, 2^53): protocol ids and limits must read back as sent.
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::uint64_t as_uint() const;
};

/// Parses exactly one JSON document covering all of `text` (surrounding
/// whitespace allowed, trailing bytes rejected) into a tree. Throws
/// JsonError.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace rlv::net
