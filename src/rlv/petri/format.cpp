#include "rlv/petri/format.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace rlv::petri {

NetParseError::NetParseError(std::string message, std::size_t line)
    : std::runtime_error(line == 0 ? message
                                   : message + " (line " +
                                         std::to_string(line) + ")"),
      line_(line) {}

namespace {

[[noreturn]] void fail(const std::string& message, std::size_t line) {
  throw NetParseError(message, line);
}

bool valid_name(std::string_view s) {
  if (s.empty() || s.size() > kMaxNameLength) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

/// Splits a line into whitespace-separated fields, dropping `#` comments.
std::vector<std::string_view> fields_of(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || line[i] == '#') break;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t' &&
           line[j] != '#') {
      ++j;
    }
    fields.push_back(line.substr(i, j - i));
    i = j;
  }
  return fields;
}

std::uint32_t parse_count(std::string_view s, std::uint32_t min_value,
                          const char* what, std::size_t line) {
  if (s.empty() || s.size() > 7 ||
      !std::all_of(s.begin(), s.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    fail(std::string(what) + " is not a number in range: '" + std::string(s) +
             "'",
         line);
  }
  std::uint32_t value = 0;
  for (const char c : s) value = value * 10 + static_cast<std::uint32_t>(c - '0');
  if (value < min_value || value > kMaxTokens) {
    fail(std::string(what) + " out of range: " + std::string(s), line);
  }
  return value;
}

}  // namespace

NetFile parse_net(std::string_view text, Budget* budget) {
  StageScope scope(budget, Stage::kParse);
  NetFile file;
  std::unordered_map<std::string, PlaceId> places;
  std::unordered_set<std::string> labels;
  std::unordered_set<std::string> hidden_seen;
  // Line of each file.hidden entry, for the post-parse existence check.
  std::vector<std::size_t> hide_lines;
  // Per-transition duplicate-arc sets, keyed (kind, place).
  std::unordered_set<std::uint64_t> arcs_seen;
  bool saw_net_line = false;
  bool has_transition = false;
  TransId current = 0;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    if (++line_no > kMaxLines) fail("too many lines", 0);
    budget_tick(budget);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

    const std::vector<std::string_view> f = fields_of(line);
    if (f.empty()) continue;
    const std::string_view directive = f[0];

    if (directive == "net") {
      if (saw_net_line) fail("duplicate 'net' line", line_no);
      if (f.size() != 2) fail("'net' takes exactly one name", line_no);
      if (!valid_name(f[1])) fail("bad net name", line_no);
      saw_net_line = true;
      file.name = std::string(f[1]);
    } else if (directive == "place") {
      if (f.size() != 2 && f.size() != 3) {
        fail("'place' takes a name and an optional token count", line_no);
      }
      if (!valid_name(f[1])) fail("bad place name", line_no);
      if (places.count(std::string(f[1]))) {
        fail("duplicate place '" + std::string(f[1]) + "'", line_no);
      }
      if (file.net.num_places() >= kMaxPlaces) fail("too many places", line_no);
      const std::uint32_t tokens =
          f.size() == 3 ? parse_count(f[2], 0, "token count", line_no) : 0;
      budget_charge(budget);
      const PlaceId p = file.net.add_place(f[1], tokens);
      places.emplace(std::string(f[1]), p);
    } else if (directive == "trans") {
      if (f.size() != 2) fail("'trans' takes exactly one label", line_no);
      if (!valid_name(f[1])) fail("bad transition label", line_no);
      if (file.net.num_transitions() >= kMaxTransitions) {
        fail("too many transitions", line_no);
      }
      budget_charge(budget);
      current = file.net.add_transition(f[1]);
      labels.insert(std::string(f[1]));
      has_transition = true;
    } else if (directive == "in" || directive == "out" || directive == "read") {
      if (!has_transition) {
        fail("'" + std::string(directive) + "' before any 'trans'", line_no);
      }
      if (f.size() != 2 && f.size() != 3) {
        fail("'" + std::string(directive) +
                 "' takes a place and an optional weight",
             line_no);
      }
      const auto it = places.find(std::string(f[1]));
      if (it == places.end()) {
        fail("unknown place '" + std::string(f[1]) + "'", line_no);
      }
      const std::uint32_t weight =
          f.size() == 3 ? parse_count(f[2], 1, "weight", line_no) : 1;
      const std::uint64_t kind =
          directive == "in" ? 0 : directive == "out" ? 1 : 2;
      const std::uint64_t key = (std::uint64_t{current} << 34) |
                                (kind << 32) | std::uint64_t{it->second};
      if (!arcs_seen.insert(key).second) {
        fail("duplicate '" + std::string(directive) + "' arc on place '" +
                 std::string(f[1]) + "'",
             line_no);
      }
      if (directive == "in") {
        file.net.add_input(current, it->second, weight);
      } else if (directive == "out") {
        file.net.add_output(current, it->second, weight);
      } else {
        file.net.add_read(current, it->second, weight);
      }
    } else if (directive == "hide") {
      if (f.size() < 2) fail("'hide' takes at least one label", line_no);
      for (std::size_t k = 1; k < f.size(); ++k) {
        if (!valid_name(f[k])) fail("bad label in 'hide'", line_no);
        if (!hidden_seen.insert(std::string(f[k])).second) {
          fail("duplicate hidden label '" + std::string(f[k]) + "'", line_no);
        }
        file.hidden.emplace_back(f[k]);
        hide_lines.push_back(line_no);
      }
    } else {
      fail("unknown directive '" + std::string(directive) + "'", line_no);
    }
  }

  for (std::size_t k = 0; k < file.hidden.size(); ++k) {
    if (!labels.count(file.hidden[k])) {
      fail("hidden label '" + file.hidden[k] +
               "' is not the label of any transition",
           hide_lines[k]);
    }
  }
  return file;
}

std::string serialize_net(const NetFile& file) {
  std::string out;
  if (!file.name.empty()) {
    out += "net ";
    out += file.name;
    out += '\n';
  }
  const PetriNet& net = file.net;
  for (PlaceId p = 0; p < net.num_places(); ++p) {
    out += "place ";
    out += net.place_name(p);
    if (net.initial_marking()[p] != 0) {
      out += ' ';
      out += std::to_string(net.initial_marking()[p]);
    }
    out += '\n';
  }
  const auto arc_lines = [&](const char* directive,
                             const std::vector<PetriNet::Arc>& arcs) {
    for (const PetriNet::Arc& arc : arcs) {
      out += directive;
      out += ' ';
      out += net.place_name(arc.place);
      if (arc.weight != 1) {
        out += ' ';
        out += std::to_string(arc.weight);
      }
      out += '\n';
    }
  };
  for (TransId t = 0; t < net.num_transitions(); ++t) {
    out += "trans ";
    out += net.label(t);
    out += '\n';
    arc_lines("in", net.inputs(t));
    arc_lines("out", net.outputs(t));
    arc_lines("read", net.reads(t));
  }
  if (!file.hidden.empty()) {
    out += "hide";
    for (const std::string& h : file.hidden) {
      out += ' ';
      out += h;
    }
    out += '\n';
  }
  return out;
}

}  // namespace rlv::petri
