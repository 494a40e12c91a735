#include "rlv/net/protocol.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "rlv/io/json_writer.hpp"
#include "rlv/net/json.hpp"

namespace rlv::net {

namespace {

/// The fields a request may carry; anything else is rejected so typos
/// ("formual") fail loudly instead of silently checking the wrong thing.
enum Field : unsigned {
  kOp,
  kId,
  kSystem,
  kFormula,
  kPropertyAutomaton,
  kCheck,
  kTimeoutMs,
  kMaxStates,
  kCertify,
  kLabel,
  kSession,
  kActions,
  kFieldCount,
};

constexpr std::string_view kKnownFields[kFieldCount] = {
    "op",         "id",         "system",  "formula", "property_automaton",
    "check",      "timeout_ms", "max_states", "certify", "label",
    "session",    "actions",
};

constexpr std::uint32_t bit(Field f) { return std::uint32_t{1} << f; }

RequestOp parse_op(std::string_view op) {
  if (op == "query") return RequestOp::kQuery;
  if (op == "stats") return RequestOp::kStats;
  if (op == "ping") return RequestOp::kPing;
  if (op == "monitor_open") return RequestOp::kMonitorOpen;
  if (op == "monitor_step") return RequestOp::kMonitorStep;
  if (op == "monitor_close") return RequestOp::kMonitorClose;
  throw std::runtime_error("unknown op '" + std::string(op) + "'");
}

/// A request's fields as one pass reads them, before it knows the op.
/// Which fields count depends on the op, which may come last, so a field
/// that holds the wrong kind of value keeps its error until finish(): a
/// ping carrying {"session":"x"} is still a ping. Fields that every op
/// reads (op, id, label) are checked as they are read.
class Decoder {
 public:
  explicit Decoder(std::string_view line) : reader_(line), line_(line) {}

  Request decode() {
    if (reader_.peek() != JsonKind::kObject) {
      reader_.skip();
      reader_.finish();
      throw std::runtime_error("request must be an object");
    }
    reader_.begin_object();
    for (std::string_view key; reader_.next_key(key);) {
      const auto* it =
          std::find(std::begin(kKnownFields), std::end(kKnownFields), key);
      if (it == std::end(kKnownFields)) {
        throw std::runtime_error("unknown field '" + std::string(key) + "'");
      }
      const auto field = static_cast<Field>(it - std::begin(kKnownFields));
      seen_ |= bit(field);  // the reader rejects a second one
      read(field);
    }
    reader_.finish();
    return finish();
  }

 private:
  /// Reads one field's value into `fields_`, the query doubling as the
  /// monitor spec until the op is known.
  void read(Field field) {
    Query& q = fields_.query;
    switch (field) {
      case kOp:
        fields_.op = parse_op(reader_.string());
        break;
      case kId:
        fields_.id = reader_.uint();
        break;
      case kLabel:
        fields_.label = reader_.string();
        break;
      case kSystem:
        read_string(field, q.system);
        break;
      case kFormula:
        read_string(field, q.formula);
        break;
      case kPropertyAutomaton:
        read_string(field, q.property_automaton);
        break;
      case kCheck:
        if (expect(field, JsonKind::kString, "string")) {
          const std::string_view name = reader_.string();
          if (const auto kind = parse_check_kind(name)) {
            q.kind = *kind;
          } else {
            errors_[field] = "unknown check kind '" + std::string(name) + "'";
          }
        }
        break;
      case kTimeoutMs:
        read_uint(field, q.timeout_ms);
        break;
      case kMaxStates:
        read_uint(field, q.max_states);
        break;
      case kSession:
        read_uint(field, fields_.session);
        break;
      case kCertify:
        if (expect(field, JsonKind::kBool, "bool")) {
          q.certify = reader_.boolean();
        }
        break;
      case kActions:
        read_actions();
        break;
      case kFieldCount:
        break;
    }
  }

  /// True when the value is of `kind`; else keeps the error for the field
  /// and reads past the value.
  bool expect(Field field, JsonKind kind, const char* name) {
    const JsonKind got = reader_.peek();
    if (got == kind) return true;
    errors_[field] = kind_mismatch(name, got);
    reader_.skip();
    return false;
  }

  void read_string(Field field, std::string& out) {
    if (expect(field, JsonKind::kString, "string")) out = reader_.string();
  }

  void read_uint(Field field, std::uint64_t& out) {
    if (!expect(field, JsonKind::kNumber, "number")) return;
    const double number = reader_.number();
    try {
      out = json_uint(number);
    } catch (const std::runtime_error& e) {
      errors_[field] = e.what();
    }
  }

  /// Each name is a view into the line; an escaped one is copied to
  /// `escaped_` and pointed at once the request is complete.
  void read_actions() {
    if (reader_.peek() != JsonKind::kArray) {
      errors_[kActions] = "'actions' must be an array of strings";
      reader_.skip();
      return;
    }
    std::vector<std::string_view>& actions = fields_.actions;
    actions.reserve(std::min<std::size_t>(line_.size() / 4, 256));
    reader_.begin_array();
    while (reader_.next_element()) {
      if (!errors_[kActions].empty()) {
        reader_.skip();
      } else if (expect(kActions, JsonKind::kString, "string")) {
        const std::string_view name = reader_.string();
        if (reader_.escaped()) {
          moved_.push_back({actions.size(), escaped_.size()});
          escaped_ += name;
        }
        actions.push_back(name);
      }
    }
  }

  void require(Field field) {
    if (!(seen_ & bit(field))) {
      throw std::runtime_error("missing field '" +
                               std::string(kKnownFields[field]) + "'");
    }
    check(field);
  }

  void check(Field field) {
    if (!errors_[field].empty()) throw std::runtime_error(errors_[field]);
  }

  /// The target system and property a query and a monitor_open share: the
  /// property is the formula XOR an explicit Büchi automaton, never both,
  /// never neither.
  void check_target() {
    require(kSystem);
    const bool f = seen_ & bit(kFormula);
    const bool p = seen_ & bit(kPropertyAutomaton);
    if (f && p) {
      throw std::runtime_error(
          "'formula' and 'property_automaton' are mutually exclusive");
    }
    if (!f && !p) {
      throw std::runtime_error("missing 'formula' or 'property_automaton'");
    }
    check(f ? kFormula : kPropertyAutomaton);
    check(kCertify);
  }

  /// The request with what its op reads, once every field is in.
  Request finish() {
    Request r;
    r.op = fields_.op;
    r.id = fields_.id;
    r.label = std::move(fields_.label);
    Query& q = fields_.query;
    switch (r.op) {
      case RequestOp::kStats:
      case RequestOp::kPing:
        break;
      case RequestOp::kQuery:
        check_target();
        check(kCheck);
        check(kTimeoutMs);
        check(kMaxStates);
        r.query = std::move(q);
        break;
      case RequestOp::kMonitorOpen:
        check_target();
        r.monitor = {std::move(q.system), std::move(q.formula),
                     std::move(q.property_automaton), q.certify};
        break;
      case RequestOp::kMonitorStep:
        require(kSession);
        require(kActions);
        r.session = fields_.session;
        r.actions = std::move(fields_.actions);
        if (!escaped_.empty()) {
          r.escaped_actions = std::make_unique<char[]>(escaped_.size());
          std::memcpy(r.escaped_actions.get(), escaped_.data(),
                      escaped_.size());
          for (const auto& [index, offset] : moved_) {
            r.actions[index] = {r.escaped_actions.get() + offset,
                                r.actions[index].size()};
          }
        }
        break;
      case RequestOp::kMonitorClose:
        require(kSession);
        r.session = fields_.session;
        break;
    }
    return r;
  }

  JsonReader reader_;
  std::string_view line_;
  Request fields_;  // every field read so far, whatever the op reads
  std::uint32_t seen_ = 0;
  /// Why a present field cannot be read, kept until the op says whether
  /// the field counts.
  std::array<std::string, kFieldCount> errors_;
  std::string escaped_;  // escaped action names, unescaped, back to back
  std::vector<std::pair<std::size_t, std::size_t>> moved_;  // {index, offset}
};

/// Opens a reply object with its "id" and "ok" members.
JsonWriter& begin_reply(JsonWriter& w, std::uint64_t id, bool ok) {
  return w.begin_object().field("id", id).field("ok", ok);
}

}  // namespace

Request parse_request(std::string_view line) {
  try {
    return Decoder(line).decode();
  } catch (const JsonError& e) {
    throw std::runtime_error(std::string("malformed JSON: ") + e.what());
  }
}

void apply_limits(Query& query, const ServerLimits& limits) {
  if (limits.max_timeout_ms > 0) {
    query.timeout_ms = query.timeout_ms > 0
                           ? std::min(query.timeout_ms, limits.max_timeout_ms)
                           : limits.max_timeout_ms;
  }
  if (limits.max_max_states > 0) {
    query.max_states = query.max_states > 0
                           ? std::min(query.max_states, limits.max_max_states)
                           : limits.max_max_states;
  }
}

void append_error(std::string& out, std::optional<std::uint64_t> id,
                  std::string_view code, std::string_view detail) {
  JsonWriter w(out);
  w.begin_object();
  if (id) w.field("id", *id);
  w.field("ok", false).field("error", code);
  if (!detail.empty()) w.field("detail", detail);
  w.end_object();
}

std::string render_error(std::optional<std::uint64_t> id,
                         std::string_view code, std::string_view detail) {
  std::string out;
  append_error(out, id, code, detail);
  return out;
}

std::string render_overloaded(std::uint64_t id, std::string_view scope) {
  std::string out;
  JsonWriter w(out);
  begin_reply(w, id, false).field("error", "overloaded");
  w.field("overloaded", true).field("scope", scope).end_object();
  return out;
}

std::string render_monitor_open(std::uint64_t id, const MonitorOpenResult& r) {
  if (r.table_full) return render_overloaded(id, "sessions");
  if (!r.error.empty()) return render_error(id, r.error, {});
  std::string out;
  JsonWriter w(out);
  begin_reply(w, id, !r.resource_exhausted);
  if (r.resource_exhausted) {
    w.field("resource_exhausted", true).field("stage", r.exhausted_stage);
  } else {
    w.field("session", r.session);
    w.field("verdict", monitor::verdict_name(r.verdict));
    w.field("certified", r.certified).field("ms", r.millis);
  }
  w.end_object();
  return out;
}

void append_monitor_step(std::string& out, std::uint64_t id,
                         const MonitorStepResult& r) {
  if (!r.error.empty()) return append_error(out, id, r.error, r.error_detail);
  JsonWriter w(out);
  begin_reply(w, id, true).field("verdict", monitor::verdict_name(r.verdict));
  w.field("events", r.events);
  if (r.transition_index && r.transition_doomed) {
    w.field("doomed_index", *r.transition_index).key("witness").begin_array();
    for (const std::string& action : r.witness) w.value(action);
    w.end_array().field("witness_certified", r.witness_certified);
  } else if (r.transition_index) {
    w.field("left_index", *r.transition_index);
  }
  w.end_object();
}

std::string render_monitor_step(std::uint64_t id, const MonitorStepResult& r) {
  std::string out;
  append_monitor_step(out, id, r);
  return out;
}

std::string render_monitor_close(std::uint64_t id,
                                 const MonitorCloseResult& r) {
  if (!r.error.empty()) return render_error(id, r.error, {});
  std::string out;
  JsonWriter w(out);
  begin_reply(w, id, true).field("closed", r.closed);
  w.field("events", r.events).end_object();
  return out;
}

}  // namespace rlv::net
