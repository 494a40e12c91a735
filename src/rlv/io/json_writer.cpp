#include "rlv/io/json_writer.hpp"

#include <charconv>
#include <cmath>

namespace rlv {

void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    out += '\\';
    if (c == '"' || c == '\\') {
      out += static_cast<char>(c);
    } else if (c == '\n' || c == '\t' || c == '\r') {
      out += c == '\n' ? 'n' : c == '\t' ? 't' : 'r';
    } else {
      out += "u00";
      out += kHex[c >> 4];
      out += kHex[c & 0xf];
    }
  }
  out.append(s, run);
}

JsonWriter& JsonWriter::value(double d) {
  if (!std::isfinite(d)) return raw("null");
  char buf[32];
  return raw({buf, std::to_chars(buf, buf + sizeof buf, d,
                                 std::chars_format::general, 6)
                       .ptr});
}

JsonWriter& JsonWriter::number(std::uint64_t n) {
  char buf[24];
  return raw({buf, std::to_chars(buf, buf + sizeof buf, n).ptr});
}

}  // namespace rlv
