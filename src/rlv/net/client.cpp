#include "rlv/net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "rlv/io/format.hpp"
#include "rlv/io/json_writer.hpp"
#include "rlv/net/json.hpp"

namespace rlv::net {

namespace {

/// "system", then "formula" or "property_automaton": the members a query
/// and a monitor_open share.
template <typename Spec>
void write_target(JsonWriter& w, const Spec& spec) {
  const bool formula = spec.property_automaton.empty();
  w.field("system", spec.system);
  w.field(formula ? "formula" : "property_automaton",
          formula ? spec.formula : spec.property_automaton);
}

}  // namespace

std::string render_query_request(const Query& query, std::uint64_t id,
                                 std::string_view label) {
  std::string out;
  JsonWriter w(out);
  w.begin_object().field("id", id);
  write_target(w, query);
  w.field("check", check_kind_name(query.kind));
  if (query.timeout_ms > 0) w.field("timeout_ms", query.timeout_ms);
  if (query.max_states > 0) w.field("max_states", query.max_states);
  if (query.certify) w.field("certify", true);
  if (!label.empty()) w.field("label", label);
  w.end_object();
  return out;
}

std::string render_monitor_open_request(const MonitorSpec& spec,
                                        std::uint64_t id,
                                        std::string_view label) {
  std::string out;
  JsonWriter w(out);
  w.begin_object().field("op", "monitor_open").field("id", id);
  write_target(w, spec);
  if (spec.certify) w.field("certify", true);
  if (!label.empty()) w.field("label", label);
  w.end_object();
  return out;
}

std::string render_monitor_step_request(std::uint64_t session,
                                        const std::vector<std::string>& actions,
                                        std::uint64_t id) {
  std::string out;
  JsonWriter w(out);
  w.begin_object().field("op", "monitor_step").field("id", id);
  w.field("session", session).key("actions").begin_array();
  for (const std::string& action : actions) w.value(action);
  w.end_array().end_object();
  return out;
}

std::string render_monitor_close_request(std::uint64_t session,
                                         std::uint64_t id) {
  std::string out;
  JsonWriter w(out);
  w.begin_object().field("op", "monitor_close").field("id", id);
  w.field("session", session).end_object();
  return out;
}

Response parse_response(std::string_view line) {
  Response response;
  response.raw = std::string(line);
  try {
    JsonReader reader(line);
    if (reader.peek() != JsonKind::kObject) {
      reader.skip();  // a bare value carries none of the fields
      reader.finish();
      return response;
    }
    reader.begin_object();
    for (std::string_view key; reader.next_key(key);) {
      if (key == "id") {
        response.id = reader.uint();
      } else if (key == "ok") {
        response.ok = reader.boolean();
      } else if (key == "holds") {
        response.has_holds = true;
        response.holds = reader.boolean();
      } else if (key == "verdict") {
        response.verdict = reader.string();
      } else if (key == "events") {
        response.events = reader.uint();
      } else if (key == "session") {
        response.has_session = true;
        response.session = reader.uint();
      } else if (key == "doomed_index") {
        response.has_doomed_index = true;
        response.doomed_index = reader.uint();
      } else if (key == "witness_certified") {
        response.witness_certified = reader.boolean();
      } else if (key == "error") {
        response.error = reader.string();
      } else if (key == "overloaded") {
        response.overloaded = reader.boolean();
      } else if (key == "resource_exhausted") {
        response.resource_exhausted = reader.boolean();
      } else {
        reader.skip();  // stages, cache, witnesses: validated, not kept
      }
    }
    reader.finish();
  } catch (const JsonError& e) {
    throw std::runtime_error(std::string("malformed response: ") + e.what());
  }
  return response;
}

void Client::connect(const std::string& host, std::uint16_t port) {
  close();
  const std::string address = host == "localhost" ? "127.0.0.1" : host;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad address (dotted IPv4 expected): " + host);
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    close();
    throw std::runtime_error("connect " + host + ":" + std::to_string(port) +
                             ": " + std::strerror(saved));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void Client::send_line(std::string_view line) {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  std::string framed(line);
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string Client::read_line() {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line(strip_cr(std::string_view(buffer_).substr(0, nl)));
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) throw std::runtime_error("connection closed by server");
    if (errno == EINTR) continue;
    throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
  }
}

std::string Client::call(std::string_view request_line) {
  send_line(request_line);
  return read_line();
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

}  // namespace rlv::net
