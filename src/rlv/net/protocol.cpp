#include "rlv/net/protocol.hpp"

#include <algorithm>

#include "rlv/io/json_writer.hpp"
#include "rlv/net/json.hpp"

namespace rlv::net {

namespace {

/// The fields a request may carry; anything else is rejected so typos
/// ("formual") fail loudly instead of silently checking the wrong thing.
constexpr std::string_view kKnownFields[] = {
    "op",         "id",         "system",  "formula", "property_automaton",
    "check",      "timeout_ms", "max_states", "certify", "label",
    "session",    "actions",
};

/// Shared between query and monitor_open: the property is the formula XOR
/// an explicit Büchi automaton, never both, never neither.
void parse_property_fields(const JsonValue& root, std::string* formula,
                           std::string* property_automaton) {
  const JsonValue* f = root.find("formula");
  const JsonValue* p = root.find("property_automaton");
  if (f && p) {
    throw std::runtime_error(
        "'formula' and 'property_automaton' are mutually exclusive");
  }
  if (!f && !p) {
    throw std::runtime_error("missing 'formula' or 'property_automaton'");
  }
  if (f) *formula = f->as_string();
  if (p) *property_automaton = p->as_string();
}

/// Opens a reply object with its "id" and "ok" members.
JsonWriter& begin_reply(JsonWriter& w, std::uint64_t id, bool ok) {
  return w.begin_object().field("id", id).field("ok", ok);
}

}  // namespace

Request parse_request(std::string_view line) {
  JsonValue root;
  try {
    root = parse_json(line);
  } catch (const JsonError& e) {
    throw std::runtime_error(std::string("malformed JSON: ") + e.what());
  }
  if (!root.is_object()) throw std::runtime_error("request must be an object");
  for (const auto& [key, unused] : root.object) {
    if (std::find(std::begin(kKnownFields), std::end(kKnownFields), key) ==
        std::end(kKnownFields)) {
      throw std::runtime_error("unknown field '" + key + "'");
    }
  }

  Request request;
  if (const JsonValue* id = root.find("id")) request.id = id->as_uint();
  if (const JsonValue* label = root.find("label")) {
    request.label = label->as_string();
  }

  std::string_view op = "query";
  if (const JsonValue* op_field = root.find("op")) {
    op = op_field->as_string();
  }
  if (op == "stats") {
    request.op = RequestOp::kStats;
    return request;
  }
  if (op == "ping") {
    request.op = RequestOp::kPing;
    return request;
  }
  if (op == "monitor_open") {
    request.op = RequestOp::kMonitorOpen;
    const JsonValue* system = root.find("system");
    if (!system) throw std::runtime_error("missing field 'system'");
    request.monitor.system = system->as_string();
    parse_property_fields(root, &request.monitor.formula,
                          &request.monitor.property_automaton);
    if (const JsonValue* certify = root.find("certify")) {
      request.monitor.certify = certify->as_bool();
    }
    return request;
  }
  if (op == "monitor_step") {
    request.op = RequestOp::kMonitorStep;
    const JsonValue* session = root.find("session");
    if (!session) throw std::runtime_error("missing field 'session'");
    request.session = session->as_uint();
    const JsonValue* actions = root.find("actions");
    if (!actions) throw std::runtime_error("missing field 'actions'");
    if (actions->kind != JsonValue::Kind::kArray) {
      throw std::runtime_error("'actions' must be an array of strings");
    }
    request.actions.reserve(actions->array.size());
    for (const JsonValue& a : actions->array) {
      request.actions.push_back(a.as_string());
    }
    return request;
  }
  if (op == "monitor_close") {
    request.op = RequestOp::kMonitorClose;
    const JsonValue* session = root.find("session");
    if (!session) throw std::runtime_error("missing field 'session'");
    request.session = session->as_uint();
    return request;
  }
  if (op != "query") {
    throw std::runtime_error("unknown op '" + std::string(op) + "'");
  }

  request.op = RequestOp::kQuery;
  const JsonValue* system = root.find("system");
  if (!system) throw std::runtime_error("missing field 'system'");
  request.query.system = system->as_string();

  parse_property_fields(root, &request.query.formula,
                        &request.query.property_automaton);

  if (const JsonValue* check = root.find("check")) {
    const auto kind = parse_check_kind(check->as_string());
    if (!kind) {
      throw std::runtime_error("unknown check kind '" + check->as_string() +
                               "'");
    }
    request.query.kind = *kind;
  }
  if (const JsonValue* timeout = root.find("timeout_ms")) {
    request.query.timeout_ms = timeout->as_uint();
  }
  if (const JsonValue* max_states = root.find("max_states")) {
    request.query.max_states = max_states->as_uint();
  }
  if (const JsonValue* certify = root.find("certify")) {
    request.query.certify = certify->as_bool();
  }
  return request;
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

std::string render_error(std::optional<std::uint64_t> id,
                         std::string_view code, std::string_view detail) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  if (id) w.field("id", *id);
  w.field("ok", false).field("error", code);
  if (!detail.empty()) w.field("detail", detail);
  w.end_object();
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

std::string render_monitor_step(std::uint64_t id, const MonitorStepResult& r) {
  if (!r.error.empty()) return render_error(id, r.error, r.error_detail);
  std::string out;
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
