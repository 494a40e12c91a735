// rlv_fuzz --parsers: byte-level mutation fuzz of the wire readers.
//
// Seeds are lines the wire carries: rendered requests of every op, query
// records of every verdict shape, monitor and error replies, the hostile
// strings of the JSON writer's tests, and hand-written edge cases (escaped
// keys, escaped and long action names, the nesting bound). Each instance
// mutates every seed with one to four byte flips, inserts, deletes and
// splices, then checks the mutant:
//
//   * parse_json either returns a tree or throws a JsonError whose offset
//     lies within the input; nothing else may escape;
//   * parse_request and parse_response throw nothing but
//     std::runtime_error, and accept exactly the inputs that a reference
//     decode over the parse_json tree accepts, with equal decoded fields.
//     A decoded request is compared after a move, so the action views must
//     survive it.
//
// Run it under -fsanitize=address,undefined to turn out-of-bounds reads
// into failures too.

#include "fuzz_parsers.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rlv/engine/record.hpp"
#include "rlv/io/json_writer.hpp"
#include "rlv/net/client.hpp"
#include "rlv/net/json.hpp"
#include "rlv/net/protocol.hpp"
#include "rlv/util/rng.hpp"

namespace rlv {

namespace {

using net::JsonValue;

// --- reference decodes over the DOM ------------------------------------------

/// What parse_request decodes, with owned action names.
struct ReferenceRequest {
  net::RequestOp op = net::RequestOp::kQuery;
  std::uint64_t id = 0;
  std::string label;
  Query query;
  MonitorSpec monitor;
  std::uint64_t session = 0;
  std::vector<std::string> actions;
};

void reference_property(const JsonValue& root, std::string* formula,
                        std::string* property_automaton) {
  const JsonValue* f = root.find("formula");
  const JsonValue* p = root.find("property_automaton");
  if (f && p) throw std::runtime_error("both properties");
  if (!f && !p) throw std::runtime_error("no property");
  if (f) *formula = f->as_string();
  if (p) *property_automaton = p->as_string();
}

std::uint64_t required_uint(const JsonValue& root, const char* name) {
  const JsonValue* v = root.find(name);
  if (!v) throw std::runtime_error(std::string("missing ") + name);
  return v->as_uint();
}

ReferenceRequest reference_request(std::string_view line) {
  static constexpr std::string_view kKnown[] = {
      "op",         "id",         "system",  "formula", "property_automaton",
      "check",      "timeout_ms", "max_states", "certify", "label",
      "session",    "actions"};
  const JsonValue root = net::parse_json(line);
  if (!root.is_object()) throw std::runtime_error("not an object");
  for (const auto& [key, unused] : root.object) {
    if (std::find(std::begin(kKnown), std::end(kKnown), key) ==
        std::end(kKnown)) {
      throw std::runtime_error("unknown field");
    }
  }
  ReferenceRequest r;
  if (const JsonValue* id = root.find("id")) r.id = id->as_uint();
  if (const JsonValue* label = root.find("label")) r.label = label->as_string();
  std::string op = "query";
  if (const JsonValue* op_field = root.find("op")) op = op_field->as_string();
  if (op == "stats" || op == "ping") {
    r.op = op == "stats" ? net::RequestOp::kStats : net::RequestOp::kPing;
    return r;
  }
  if (op == "monitor_step") {
    r.op = net::RequestOp::kMonitorStep;
    r.session = required_uint(root, "session");
    const JsonValue* actions = root.find("actions");
    if (!actions || actions->kind != JsonValue::Kind::kArray) {
      throw std::runtime_error("bad actions");
    }
    for (const JsonValue& a : actions->array) {
      r.actions.push_back(a.as_string());
    }
    return r;
  }
  if (op == "monitor_close") {
    r.op = net::RequestOp::kMonitorClose;
    r.session = required_uint(root, "session");
    return r;
  }
  const bool open = op == "monitor_open";
  if (!open && op != "query") throw std::runtime_error("unknown op");
  r.op = open ? net::RequestOp::kMonitorOpen : net::RequestOp::kQuery;
  const JsonValue* system = root.find("system");
  if (!system) throw std::runtime_error("missing system");
  const JsonValue* certify = root.find("certify");
  if (open) {
    r.monitor.system = system->as_string();
    reference_property(root, &r.monitor.formula,
                       &r.monitor.property_automaton);
    if (certify) r.monitor.certify = certify->as_bool();
    return r;
  }
  r.query.system = system->as_string();
  reference_property(root, &r.query.formula, &r.query.property_automaton);
  if (const JsonValue* check = root.find("check")) {
    const auto kind = parse_check_kind(check->as_string());
    if (!kind) throw std::runtime_error("unknown check kind");
    r.query.kind = *kind;
  }
  if (const JsonValue* t = root.find("timeout_ms")) {
    r.query.timeout_ms = t->as_uint();
  }
  if (const JsonValue* m = root.find("max_states")) {
    r.query.max_states = m->as_uint();
  }
  if (certify) r.query.certify = certify->as_bool();
  return r;
}

net::Response reference_response(std::string_view line) {
  net::Response r;
  r.raw = std::string(line);
  const JsonValue root = net::parse_json(line);
  const auto flag = [&root](const char* name, bool* has, auto read) {
    const JsonValue* v = root.find(name);
    if (v && has) *has = true;
    if (v) read(*v);
  };
  flag("id", nullptr, [&](const JsonValue& v) { r.id = v.as_uint(); });
  flag("ok", nullptr, [&](const JsonValue& v) { r.ok = v.as_bool(); });
  flag("holds", &r.has_holds,
       [&](const JsonValue& v) { r.holds = v.as_bool(); });
  flag("overloaded", nullptr,
       [&](const JsonValue& v) { r.overloaded = v.as_bool(); });
  flag("resource_exhausted", nullptr,
       [&](const JsonValue& v) { r.resource_exhausted = v.as_bool(); });
  flag("error", nullptr, [&](const JsonValue& v) { r.error = v.as_string(); });
  flag("session", &r.has_session,
       [&](const JsonValue& v) { r.session = v.as_uint(); });
  flag("verdict", nullptr,
       [&](const JsonValue& v) { r.verdict = v.as_string(); });
  flag("doomed_index", &r.has_doomed_index,
       [&](const JsonValue& v) { r.doomed_index = v.as_uint(); });
  flag("witness_certified", nullptr,
       [&](const JsonValue& v) { r.witness_certified = v.as_bool(); });
  flag("events", nullptr, [&](const JsonValue& v) { r.events = v.as_uint(); });
  return r;
}

// --- comparison -------------------------------------------------------------

std::string differs(const net::Request& got, const ReferenceRequest& want) {
  const Query& q = got.query;
  const MonitorSpec& m = got.monitor;
  if (got.op != want.op) return "op";
  if (got.id != want.id) return "id";
  if (got.label != want.label) return "label";
  if (q.system != want.query.system || q.formula != want.query.formula ||
      q.property_automaton != want.query.property_automaton ||
      q.kind != want.query.kind || q.timeout_ms != want.query.timeout_ms ||
      q.max_states != want.query.max_states ||
      q.certify != want.query.certify) {
    return "query";
  }
  if (m.system != want.monitor.system || m.formula != want.monitor.formula ||
      m.property_automaton != want.monitor.property_automaton ||
      m.certify != want.monitor.certify) {
    return "monitor";
  }
  if (got.session != want.session) return "session";
  if (!std::equal(got.actions.begin(), got.actions.end(),
                  want.actions.begin(), want.actions.end())) {
    return "actions";
  }
  return {};
}

std::string differs(const net::Response& got, const net::Response& want) {
  if (got.id != want.id || got.ok != want.ok || got.raw != want.raw) {
    return "id/ok/raw";
  }
  if (got.has_holds != want.has_holds || got.holds != want.holds) {
    return "holds";
  }
  if (got.overloaded != want.overloaded ||
      got.resource_exhausted != want.resource_exhausted ||
      got.error != want.error) {
    return "error fields";
  }
  if (got.has_session != want.has_session || got.session != want.session ||
      got.verdict != want.verdict ||
      got.has_doomed_index != want.has_doomed_index ||
      got.doomed_index != want.doomed_index ||
      got.witness_certified != want.witness_certified ||
      got.events != want.events) {
    return "monitor fields";
  }
  return {};
}

/// Runs `decode`: the value, or nullopt when it threw a std::runtime_error.
/// Any other exception is a finding and propagates.
template <typename F>
auto accepted(F decode) -> std::optional<decltype(decode())> {
  try {
    return decode();
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

// --- seeds and mutation -----------------------------------------------------

/// The writer tests' hostile string: quote, backslash, every control byte,
/// DEL and UTF-8.
std::string hostile_text() {
  std::string s = "q\"b\\s/";
  for (char c = 0x00; c < 0x20; ++c) s += c;
  s += '\x7f';
  s += "\xc3\xa9\xe2\x86\x92";
  return s;
}

std::vector<std::string> seed_lines() {
  const std::string hostile = hostile_text();
  const std::string system =
      "alphabet: request yes no result lock free\nstates: 2\ninitial: 0\n"
      "0 request 1\n1 yes 0\n";
  std::vector<std::string> seeds;

  // Requests of every op.
  Query plain;
  plain.system = system;
  plain.formula = "G F result";
  seeds.push_back(net::render_query_request(plain, 1));
  Query full;
  full.system = hostile;
  full.property_automaton = "states: 1\ninitial: 0\naccepting: 0\n";
  full.kind = CheckKind::kFairWeak;
  full.timeout_ms = 500;
  full.max_states = 100000;
  full.certify = true;
  seeds.push_back(net::render_query_request(full, 2, hostile));
  MonitorSpec spec;
  spec.system = system;
  spec.formula = "G F result";
  seeds.push_back(net::render_monitor_open_request(spec, 3, "fig3"));
  spec.formula.clear();
  spec.property_automaton = hostile;
  spec.certify = true;
  seeds.push_back(net::render_monitor_open_request(spec, 4));
  seeds.push_back(net::render_monitor_step_request(
      5, {"request", "yes", "result", "lock"}, 5));
  seeds.push_back(net::render_monitor_step_request(
      6, {hostile, "an_action_name_past_the_short_string_buffer"}, 6));
  seeds.push_back(net::render_monitor_step_request(7, {}, 7));
  seeds.push_back(net::render_monitor_close_request(5, 8));
  seeds.emplace_back(R"({"op":"ping","id":9})");
  seeds.emplace_back(R"({"op":"stats"})");
  seeds.emplace_back(
      R"({"actions":["request","yes"],"op":"monitor_step",)"
      R"("session":11,"id":1e1})");
  // Fields the op does not read may hold anything.
  seeds.emplace_back(
      R"({"op":"ping","system":1,"formula":2,"property_automaton":[],)"
      R"("check":{},"timeout_ms":"x","max_states":-1,"certify":0,)"
      R"("session":1.5,"actions":"x"})");
  seeds.emplace_back(
      R"({"op":"monitor_step","session":1,"actions":[],"check":"no",)"
      R"("certify":null,"system":true})");
  seeds.emplace_back(R"({"\u006fp":"ping","id":12})");
  seeds.emplace_back(
      R"({"op":"monitor_step","session":3,"actions":["re\u0071uest","x"]})");

  // Query records of every verdict shape.
  auto sigma = std::make_shared<Alphabet>();
  sigma->intern("req");
  sigma->intern(hostile);
  CacheCounters cache;
  cache.hits = 3;
  Verdict base;
  base.alphabet = sigma;
  base.millis = 0.25;
  base.profile[Stage::kParse].calls = 1;
  base.profile[Stage::kParse].nanos = 1500;
  Verdict holds = base;
  holds.holds = true;
  seeds.push_back(render_query_record(1, plain, holds, hostile, "", cache));
  Verdict doomed = base;
  doomed.violating_prefix = Word{0, 1};
  seeds.push_back(render_query_record(2, plain, doomed, "sys", hostile, cache));
  Verdict lasso = base;
  lasso.counterexample = Lasso{Word{1}, Word{0, 1}};
  seeds.push_back(render_query_record(3, plain, lasso, "sys", "", cache));
  Verdict exhausted;
  exhausted.resource_exhausted = true;
  exhausted.exhausted_stage = "complement";
  seeds.push_back(render_query_record(4, plain, exhausted, "sys", "", cache));
  Verdict failed;
  failed.error = hostile;
  seeds.push_back(render_query_record(5, plain, failed, "sys", "", cache));

  // Monitor, error and overload replies.
  MonitorOpenResult open;
  open.session = 9;
  open.millis = 1.5;
  seeds.push_back(net::render_monitor_open(1, open));
  MonitorOpenResult open_exhausted;
  open_exhausted.resource_exhausted = true;
  open_exhausted.exhausted_stage = hostile;
  seeds.push_back(net::render_monitor_open(1, open_exhausted));
  MonitorStepResult live;
  live.events = 4;
  seeds.push_back(net::render_monitor_step(2, live));
  MonitorStepResult doom;
  doom.verdict = monitor::Verdict::kDoomed;
  doom.events = 4;
  doom.transition_index = 3;
  doom.transition_doomed = true;
  doom.witness = {"request", hostile};
  doom.witness_certified = true;
  seeds.push_back(net::render_monitor_step(2, doom));
  MonitorStepResult left;
  left.verdict = monitor::Verdict::kLeftSystem;
  left.transition_index = 0;
  seeds.push_back(net::render_monitor_step(2, left));
  MonitorCloseResult closed;
  closed.closed = true;
  closed.events = 4;
  seeds.push_back(net::render_monitor_close(3, closed));
  seeds.push_back(net::render_error(7, "unknown_action", hostile));
  seeds.push_back(net::render_error(std::nullopt, "bad_request", ""));
  seeds.push_back(net::render_overloaded(4, "server"));

  // Hostile strings as keys and values, and the nesting bound.
  std::string line;
  JsonWriter(line).begin_object().field(hostile, hostile).end_object();
  seeds.push_back(line);
  seeds.push_back(std::string(64, '[') + "1" + std::string(64, ']'));
  seeds.emplace_back(R"({"id":1,"stages":{"parse":0.5,"x":{"y":[1,2,{}]}}})");
  return seeds;
}

/// Bytes that steer a JSON reader: structure, escapes, number and literal
/// characters, whitespace, and bytes outside printable ASCII.
char interesting_byte(Rng& rng) {
  static constexpr char kBytes[] =
      "{}[]\":,\\/ubfnrtlse0123456789-+.E \t\r\n\x00\x1f\x7f\x80\xc3\xff";
  if (rng.chance(1, 4)) return static_cast<char>(rng.next_below(256));
  return kBytes[rng.next_below(sizeof kBytes - 1)];
}

std::string mutate(Rng& rng, std::string s,
                   const std::vector<std::string>& seeds) {
  const std::uint64_t edits = 1 + rng.next_below(4);
  for (std::uint64_t k = 0; k < edits; ++k) {
    const std::size_t pos = rng.next_below(s.size() + 1);
    switch (rng.next_below(4)) {
      case 0:  // flip a bit, or overwrite with a steering byte
        if (pos < s.size()) {
          s[pos] = rng.chance(1, 2)
                       ? static_cast<char>(s[pos] ^ (1 << rng.next_below(8)))
                       : interesting_byte(rng);
        }
        break;
      case 1:
        s.insert(pos, 1, interesting_byte(rng));
        break;
      case 2:
        s.erase(pos, 1 + rng.next_below(8));
        break;
      default: {  // splice in a slice of another seed
        const std::string& other = seeds[rng.next_below(seeds.size())];
        const std::size_t from = rng.next_below(other.size() + 1);
        const std::string chunk = other.substr(from, rng.next_below(33));
        if (rng.chance(1, 2)) {
          s.insert(pos, chunk);
        } else {
          s.replace(pos, chunk.size(), chunk);
        }
        break;
      }
    }
  }
  return s;
}

std::string printable(std::string_view s) {
  std::string out;
  append_json_escaped(out, s);
  return out;
}

}  // namespace

int run_parser_fuzz(std::uint64_t seed, std::size_t instances, bool verbose) {
  const std::vector<std::string> seeds = seed_lines();
  Rng rng(seed);
  std::size_t inputs = 0;
  std::size_t documents = 0;
  std::size_t requests = 0;
  std::size_t responses = 0;

  for (std::size_t instance = 0; instance < instances; ++instance) {
    for (const std::string& original : seeds) {
      // The first instance checks the seeds themselves.
      const std::string input =
          instance == 0 ? original : mutate(rng, original, seeds);
      ++inputs;
      const auto fail = [&](const std::string& what) {
        std::fprintf(stderr,
                     "rlv_fuzz --parsers: MISMATCH at instance %zu (seed "
                     "%llu): %s\ninput (JSON-escaped): \"%s\"\n",
                     instance, static_cast<unsigned long long>(seed),
                     what.c_str(), printable(input).c_str());
        return 1;
      };
      try {
        try {
          (void)net::parse_json(input);
          ++documents;
        } catch (const net::JsonError& e) {
          if (e.offset() > input.size()) {
            return fail("JsonError offset " + std::to_string(e.offset()) +
                        " past the input");
          }
        }

        auto got = accepted([&] { return net::parse_request(input); });
        const auto want = accepted([&] { return reference_request(input); });
        if (got.has_value() != want.has_value()) {
          return fail(got ? "parse_request accepts what the reference rejects"
                          : "parse_request rejects what the reference accepts");
        }
        if (got) {
          ++requests;
          const net::Request moved = std::move(*got);
          got.reset();
          const std::string what = differs(moved, *want);
          if (!what.empty()) return fail("parse_request decodes " + what);
        }

        const auto response =
            accepted([&] { return net::parse_response(input); });
        const auto reference =
            accepted([&] { return reference_response(input); });
        if (response.has_value() != reference.has_value()) {
          return fail(
              response ? "parse_response accepts what the reference rejects"
                       : "parse_response rejects what the reference accepts");
        }
        if (response) {
          ++responses;
          const std::string what = differs(*response, *reference);
          if (!what.empty()) return fail("parse_response decodes " + what);
        }
      } catch (const std::exception& e) {
        return fail(std::string("non-runtime_error exception: ") + e.what());
      }
    }
    if (verbose) std::printf("instance %zu ok\n", instance);
  }

  std::printf(
      "rlv_fuzz --parsers: %zu inputs ok (seed %llu, %zu seeds): %zu JSON "
      "documents, %zu requests and %zu responses accepted, 0 mismatches\n",
      inputs, static_cast<unsigned long long>(seed), seeds.size(), documents,
      requests, responses);
  return 0;
}

}  // namespace rlv
