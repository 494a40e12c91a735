#pragma once

// The one JSON writer: every record, wire reply, wire request and stats
// line goes through it, so escaping, comma placement and number format
// are decided here once. It appends to the caller's string:
//
//   JsonWriter w(line);
//   w.begin_object().field("id", 7).key("witness").begin_array();
//   w.value("req").end_array().end_object();  // {"id":7,"witness":["req"]}
//
// Strings escape `"`, `\` and every byte below 0x20 (\n \t \r short, the
// rest \u00XX); other bytes, DEL and UTF-8 included, pass through. A
// nesting stack records which open container has a member, so commas need
// no "first" flags. Integers are exact; doubles print as printf "%g" (six
// significant digits), non-finite ones as null.

#include <cassert>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>

namespace rlv {

/// Appends `s` to `out` escaped for the inside of a JSON string literal.
void append_json_escaped(std::string& out, std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  /// An object member's name; the next value written is its value.
  JsonWriter& key(std::string_view name) {
    value(name);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view s) {
    separate();
    out_ += '"';
    append_json_escaped(out_, s);
    out_ += '"';
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  JsonWriter& value(double d);
  JsonWriter& value(std::unsigned_integral auto n) { return number(n); }
  /// A value that is already JSON text, copied verbatim.
  JsonWriter& raw(std::string_view json) {
    separate();
    out_ += json;
    return *this;
  }

  JsonWriter& field(std::string_view name, const auto& v) {
    return key(name).value(v);
  }

 private:
  JsonWriter& open(char bracket) {
    separate();
    out_ += bracket;
    assert(depth_ < 63);
    has_member_ &= ~(std::uint64_t{1} << ++depth_);
    return *this;
  }
  JsonWriter& close(char bracket) {
    assert(depth_ > 0 && !after_key_);
    --depth_;
    out_ += bracket;
    return *this;
  }
  JsonWriter& number(std::uint64_t n);
  /// Writes the comma a new member needs, unless it is a key's value.
  void separate() {
    const std::uint64_t bit = std::uint64_t{1} << depth_;
    if (!after_key_ && (has_member_ & bit)) out_ += ',';
    has_member_ |= bit;
    after_key_ = false;
  }

  std::string& out_;
  std::uint64_t has_member_ = 0;  // bit d: container at depth d is nonempty
  unsigned depth_ = 0;            // at most 63
  bool after_key_ = false;
};

}  // namespace rlv
