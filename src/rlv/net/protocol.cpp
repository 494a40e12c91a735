#include "rlv/net/protocol.hpp"

#include <algorithm>

#include "rlv/io/format.hpp"
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

std::string render_server_counters(const ServerCounters& c, bool draining) {
  std::string out = "{";
  const auto field = [&out](std::string_view name, std::uint64_t value) {
    if (out.size() > 1) out += ",";
    out += "\"";
    out += name;
    out += "\":" + std::to_string(value);
  };
  field("connections_accepted", c.connections_accepted);
  field("connections_open", c.connections_open);
  field("requests", c.requests);
  field("queries", c.queries);
  field("overload_rejects", c.overload_rejects);
  field("protocol_errors", c.protocol_errors);
  field("idle_closed", c.idle_closed);
  field("bytes_read", c.bytes_read);
  field("bytes_written", c.bytes_written);
  field("inflight", c.inflight);
  field("accept_soft_errors", c.accept_soft_errors);
  field("computing", c.computing);
  field("queued", c.queued);
  field("queued_total", c.queued_total);
  out += ",\"draining\":";
  out += draining ? "true" : "false";
  out += "}";
  return out;
}

std::string render_error(std::optional<std::uint64_t> id,
                         std::string_view code, std::string_view detail) {
  std::string out = "{";
  if (id) out += "\"id\":" + std::to_string(*id) + ",";
  out += "\"ok\":false,\"error\":\"" + json_escape(code) + "\"";
  if (!detail.empty()) out += ",\"detail\":\"" + json_escape(detail) + "\"";
  out += "}";
  return out;
}

std::string render_overloaded(std::uint64_t id, std::string_view scope) {
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":false,\"error\":\"overloaded\",\"overloaded\":true,"
         "\"scope\":\"" +
         json_escape(scope) + "\"}";
}

std::string render_monitor_open(std::uint64_t id, const MonitorOpenResult& r) {
  if (r.table_full) return render_overloaded(id, "sessions");
  if (r.resource_exhausted) {
    return "{\"id\":" + std::to_string(id) +
           ",\"ok\":false,\"resource_exhausted\":true,\"stage\":\"" +
           json_escape(r.exhausted_stage) + "\"}";
  }
  if (!r.error.empty()) return render_error(id, r.error, {});
  std::string out = "{\"id\":" + std::to_string(id) +
                    ",\"ok\":true,\"session\":" + std::to_string(r.session) +
                    ",\"verdict\":\"" +
                    std::string(monitor::verdict_name(r.verdict)) +
                    "\",\"certified\":" + (r.certified ? "true" : "false");
  out += ",\"ms\":" + std::to_string(r.millis) + "}";
  return out;
}

std::string render_monitor_step(std::uint64_t id, const MonitorStepResult& r) {
  if (!r.error.empty()) return render_error(id, r.error, r.error_detail);
  std::string out = "{\"id\":" + std::to_string(id) +
                    ",\"ok\":true,\"verdict\":\"" +
                    std::string(monitor::verdict_name(r.verdict)) +
                    "\",\"events\":" + std::to_string(r.events);
  if (r.transition_index) {
    if (r.transition_doomed) {
      out += ",\"doomed_index\":" + std::to_string(*r.transition_index);
      out += ",\"witness\":[";
      for (std::size_t i = 0; i < r.witness.size(); ++i) {
        if (i > 0) out += ',';
        out += '"' + json_escape(r.witness[i]) + '"';
      }
      out += "],\"witness_certified\":";
      out += r.witness_certified ? "true" : "false";
    } else {
      out += ",\"left_index\":" + std::to_string(*r.transition_index);
    }
  }
  out += "}";
  return out;
}

std::string render_monitor_close(std::uint64_t id,
                                 const MonitorCloseResult& r) {
  if (!r.error.empty()) return render_error(id, r.error, {});
  return "{\"id\":" + std::to_string(id) + ",\"ok\":true,\"closed\":" +
         (r.closed ? "true" : "false") +
         ",\"events\":" + std::to_string(r.events) + "}";
}

}  // namespace rlv::net
