#pragma once

// Minimal JSON reader for the rlv::net wire protocol. Requests arrive as
// one JSON object per line from untrusted clients, so the parser is
// strict (RFC 8259 grammar, no extensions), bounds recursion depth, and
// reports errors with byte offsets safe to echo back in an error
// response. Writing goes through rlv::JsonWriter (rlv/io/json_writer.hpp),
// which appends straight to an output buffer — no DOM is built to write.

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

/// One parsed JSON value. Object member order is preserved; duplicate keys
/// are rejected at parse time (a client sending {"id":1,"id":2} is trying
/// to confuse something).
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

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
/// whitespace allowed, trailing bytes rejected). Throws JsonError.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace rlv::net
