#include "rlv/io/format.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

#include "rlv/io/json_writer.hpp"

namespace rlv {

namespace {

/// Splits a line into whitespace-separated tokens, dropping '#' comments.
std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : line) {
    if (c == '#') break;
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

/// Iterates lines with 1-based numbering.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t line_number = 1;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    fn(text.substr(start, end - start), line_number);
    ++line_number;
    start = end + 1;
  }
}

/// A state id or count: digits only, at most UINT32_MAX (never wrapped).
std::uint32_t parse_number(const std::string& token, std::size_t line) {
  std::uint32_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw IoError("expected a number 0..4294967295, got '" + token + "'", line);
  }
  return value;
}

}  // namespace

Nfa parse_system(std::string_view text, Budget* budget) {
  std::shared_ptr<Alphabet> sigma;
  std::size_t num_states = 0;
  bool have_states = false;
  std::vector<State> initial;
  std::vector<State> accepting;
  bool accepting_all = false;
  bool have_accepting = false;
  struct RawTransition {
    State from;
    std::string action;
    State to;
    std::size_t line;
  };
  std::vector<RawTransition> transitions;

  for_each_line(text, [&](std::string_view line, std::size_t line_number) {
    const auto tokens = tokenize(line);
    if (tokens.empty()) return;
    if (tokens[0] == "alphabet:") {
      if (sigma) throw IoError("duplicate alphabet", line_number);
      sigma = std::make_shared<Alphabet>();
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        sigma->intern(tokens[i]);
      }
      if (sigma->size() == 0) throw IoError("empty alphabet", line_number);
    } else if (tokens[0] == "states:") {
      if (tokens.size() != 2) throw IoError("states: expects a count",
                                            line_number);
      num_states = parse_number(tokens[1], line_number);
      have_states = true;
    } else if (tokens[0] == "initial:") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        initial.push_back(parse_number(tokens[i], line_number));
      }
      if (initial.empty()) throw IoError("initial: expects state ids",
                                         line_number);
    } else if (tokens[0] == "accepting:") {
      have_accepting = true;
      if (tokens.size() == 2 && tokens[1] == "all") {
        accepting_all = true;
      } else {
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          accepting.push_back(parse_number(tokens[i], line_number));
        }
      }
    } else if (tokens.size() == 3) {
      transitions.push_back({parse_number(tokens[0], line_number), tokens[1],
                             parse_number(tokens[2], line_number),
                             line_number});
    } else {
      throw IoError("unrecognized line", line_number);
    }
  });

  if (!sigma) throw IoError("missing alphabet:", 0);
  if (!have_states) throw IoError("missing states:", 0);
  if (initial.empty()) throw IoError("missing initial:", 0);
  if (!have_accepting) throw IoError("missing accepting:", 0);

  budget_charge(budget, num_states);
  Nfa nfa(sigma);
  for (std::size_t s = 0; s < num_states; ++s) {
    budget_tick(budget);
    nfa.add_state(accepting_all);
  }
  for (const State s : accepting) {
    if (s >= num_states) throw IoError("accepting state out of range", 0);
    nfa.set_accepting(s, true);
  }
  for (const State s : initial) {
    if (s >= num_states) throw IoError("initial state out of range", 0);
    nfa.set_initial(s);
  }
  for (const RawTransition& t : transitions) {
    if (t.from >= num_states || t.to >= num_states) {
      throw IoError("transition state out of range", t.line);
    }
    if (!sigma->contains(t.action)) {
      throw IoError("unknown action '" + t.action + "'", t.line);
    }
    nfa.add_transition(t.from, sigma->id(t.action), t.to);
  }
  return nfa;
}

std::string serialize_system(const Nfa& nfa) {
  std::ostringstream out;
  out << "alphabet:";
  for (Symbol a = 0; a < nfa.alphabet()->size(); ++a) {
    out << ' ' << nfa.alphabet()->name(a);
  }
  out << "\nstates: " << nfa.num_states() << "\ninitial:";
  for (const State s : nfa.initial()) out << ' ' << s;
  out << "\naccepting:";
  bool all = nfa.num_states() > 0;
  for (State s = 0; s < nfa.num_states(); ++s) all = all && nfa.is_accepting(s);
  if (all) {
    out << " all";
  } else {
    for (State s = 0; s < nfa.num_states(); ++s) {
      if (nfa.is_accepting(s)) out << ' ' << s;
    }
  }
  out << '\n';
  for (State s = 0; s < nfa.num_states(); ++s) {
    for (const auto& t : nfa.out(s)) {
      out << s << ' ' << nfa.alphabet()->name(t.symbol) << ' ' << t.target
          << '\n';
    }
  }
  return out.str();
}

Homomorphism parse_homomorphism(std::string_view text, AlphabetRef source) {
  std::shared_ptr<Alphabet> target;
  struct Entry {
    std::string from;
    std::string to;
  };
  std::vector<Entry> renames;
  std::vector<std::string> hides;

  for_each_line(text, [&](std::string_view line, std::size_t line_number) {
    const auto tokens = tokenize(line);
    if (tokens.empty()) return;
    if (tokens[0] == "target:") {
      if (target) throw IoError("duplicate target", line_number);
      target = std::make_shared<Alphabet>();
      for (std::size_t i = 1; i < tokens.size(); ++i) target->intern(tokens[i]);
    } else if (tokens[0] == "map:") {
      if (tokens.size() != 4 || tokens[2] != "->") {
        throw IoError("map: expects '<from> -> <to>'", line_number);
      }
      renames.push_back({tokens[1], tokens[3]});
    } else if (tokens[0] == "hide:") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        hides.push_back(tokens[i]);
      }
    } else {
      throw IoError("unrecognized line", line_number);
    }
  });
  if (!target) throw IoError("missing target:", 0);

  Homomorphism h(std::move(source), target);
  for (const Entry& e : renames) {
    if (!h.source()->contains(e.from)) {
      throw IoError("map: unknown source action '" + e.from + "'", 0);
    }
    if (!target->contains(e.to)) {
      throw IoError("map: unknown target action '" + e.to + "'", 0);
    }
    h.rename(e.from, e.to);
  }
  for (const std::string& name : hides) {
    if (!h.source()->contains(name)) {
      throw IoError("hide: unknown action '" + name + "'", 0);
    }
    h.hide(name);
  }
  return h;
}

Buchi parse_buchi(std::string_view text, Budget* budget) {
  return Buchi::from_structure(parse_system(text, budget));
}

std::string serialize_buchi(const Buchi& buchi) {
  return serialize_system(buchi.structure());
}

namespace {

void append_state_set(const DynBitset& states, std::string& out) {
  out += "{";
  bool first = true;
  states.for_each([&](std::size_t s) {
    if (!first) out += ",";
    first = false;
    out += std::to_string(s);
  });
  out += "}";
}

std::string explain_impl(const Nfa& system, const Word& prefix,
                         const Word& period) {
  std::string out;
  DynBitset current(system.num_states());
  for (const State s : system.initial()) current.set(s);
  out += "start        ";
  append_state_set(current, out);
  out += "\n";

  std::size_t position = 0;
  auto feed = [&](const Word& segment, const char* tag) {
    for (const Symbol a : segment) {
      current = system.step(current, a);
      out += tag;
      out += " ";
      std::string action = system.alphabet()->name(a);
      action.resize(std::max<std::size_t>(action.size(), 12), ' ');
      out += action + " ";
      if (current.none()) {
        out += "<left the system at step " + std::to_string(position) + ">\n";
        return false;
      }
      append_state_set(current, out);
      out += "\n";
      ++position;
    }
    return true;
  };

  if (!feed(prefix, " ")) return out;
  if (!period.empty()) {
    out += "-- period (unrolled twice) --\n";
    if (feed(period, "|")) feed(period, "|");
  }
  return out;
}

}  // namespace

std::string explain_word(const Nfa& system, const Word& word) {
  return explain_impl(system, word, {});
}

std::string explain_lasso(const Nfa& system, const Word& prefix,
                          const Word& period) {
  return explain_impl(system, prefix, period);
}

namespace {

std::string dot_impl(const Nfa& nfa, std::string_view name) {
  std::ostringstream out;
  out << "digraph " << name << " {\n  rankdir=LR;\n"
      << "  node [shape=circle];\n  init [shape=point];\n";
  for (State s = 0; s < nfa.num_states(); ++s) {
    out << "  s" << s;
    out << " [label=\"" << s << '"';
    if (nfa.is_accepting(s)) out << ", shape=doublecircle";
    out << "];\n";
  }
  for (const State s : nfa.initial()) {
    out << "  init -> s" << s << ";\n";
  }
  for (State s = 0; s < nfa.num_states(); ++s) {
    for (const auto& t : nfa.out(s)) {
      out << "  s" << s << " -> s" << t.target << " [label=\""
          << nfa.alphabet()->name(t.symbol) << "\"];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace

std::string to_dot(const Nfa& nfa, std::string_view name) {
  return dot_impl(nfa, name);
}

std::string to_dot(const Buchi& buchi, std::string_view name) {
  return dot_impl(buchi.structure(), name);
}

std::string to_dot(const PetriNet& net, std::string_view name) {
  std::ostringstream out;
  out << "digraph " << name << " {\n  rankdir=LR;\n";
  for (PlaceId p = 0; p < net.num_places(); ++p) {
    out << "  p" << p << " [shape=circle, label=\"" << net.place_name(p);
    const std::uint32_t tokens = net.initial_marking()[p];
    if (tokens > 0) out << "\\n" << tokens << (tokens == 1 ? " token" : " tokens");
    out << "\"];\n";
  }
  for (TransId t = 0; t < net.num_transitions(); ++t) {
    out << "  t" << t << " [shape=box, label=\"" << net.label(t) << "\"];\n";
    for (const auto& arc : net.inputs(t)) {
      out << "  p" << arc.place << " -> t" << t;
      if (arc.weight != 1) out << " [label=\"" << arc.weight << "\"]";
      out << ";\n";
    }
    for (const auto& arc : net.outputs(t)) {
      out << "  t" << t << " -> p" << arc.place;
      if (arc.weight != 1) out << " [label=\"" << arc.weight << "\"]";
      out << ";\n";
    }
    for (const auto& arc : net.reads(t)) {
      out << "  p" << arc.place << " -> t" << t << " [style=dashed, dir=both"
          << (arc.weight != 1
                  ? ", label=\"" + std::to_string(arc.weight) + "\""
                  : std::string())
          << "];\n";
    }
  }
  out << "}\n";
  return out.str();
}

std::string to_hoa(const Buchi& buchi, std::string_view name) {
  const std::size_t sigma = buchi.alphabet()->size();
  std::ostringstream out;
  out << "HOA: v1\n";
  out << "name: \"" << name << "\"\n";
  out << "States: " << buchi.num_states() << "\n";
  for (const State s : buchi.initial()) out << "Start: " << s << "\n";
  out << "AP: " << sigma;
  for (Symbol a = 0; a < sigma; ++a) {
    out << " \"" << buchi.alphabet()->name(a) << '"';
  }
  out << "\nacc-name: Buchi\n";
  out << "Acceptance: 1 Inf(0)\n";
  out << "properties: trans-labels explicit-labels state-acc\n";
  out << "--BODY--\n";
  for (State s = 0; s < buchi.num_states(); ++s) {
    out << "State: " << s;
    if (buchi.is_accepting(s)) out << " {0}";
    out << "\n";
    for (const auto& t : buchi.out(s)) {
      out << "[";
      for (Symbol a = 0; a < sigma; ++a) {
        if (a > 0) out << "&";
        if (a != t.symbol) out << "!";
        out << a;
      }
      out << "] " << t.target << "\n";
    }
  }
  out << "--END--\n";
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

std::string json_escape(std::string_view s) {
  std::string out;
  append_json_escaped(out, s);
  return out;
}

}  // namespace rlv
