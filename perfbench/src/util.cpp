#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "rlv/io/format.hpp"
#include "rlv/net/client.hpp"
#include "rlv/net/json.hpp"

namespace perfbench {

void Result::add_record(std::string_view key, std::string_view json) {
  if (!record.empty()) record += ',';
  record += quote(key) + ":" + std::string(json);
}

Window measured_window(double seconds) {
  const auto open = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(kSettleSeconds));
  return {open, open + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds))};
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median_of(std::vector<double> values) { return quantile(values, 0.5); }

int Window::slice(Clock::time_point t) const {
  if (t < open || t >= close) return -1;
  return static_cast<int>((t - open) * kSlices / (close - open));
}

double Window::slice_seconds() const {
  return std::chrono::duration<double>(close - open).count() / kSlices;
}

void Slices::record(const Window& window, Clock::time_point start, double us,
                    double ops_done) {
  const int s = window.slice(start);
  if (s < 0) return;
  latencies_us[static_cast<std::size_t>(s)].push_back(us);
  ops[static_cast<std::size_t>(s)] += ops_done;
}

void Slices::merge(const Slices& other) {
  for (std::size_t s = 0; s < kSlices; ++s) {
    latencies_us[s].insert(latencies_us[s].end(), other.latencies_us[s].begin(),
                           other.latencies_us[s].end());
    ops[s] += other.ops[s];
  }
}

void report_end_to_end(Result& result, double setup_s, const Window& window,
                       const Slices& slices, double rss_mb) {
  std::vector<double> p50, p90, p99, rate;
  std::size_t samples = 0;
  for (std::size_t s = 0; s < kSlices; ++s) {
    std::vector<double> latencies = slices.latencies_us[s];
    if (latencies.size() < 1000) {
      throw std::runtime_error("a slice measured only " +
                               std::to_string(latencies.size()) +
                               " operations; p99 needs 1000");
    }
    samples += latencies.size();
    p50.push_back(quantile(latencies, 0.50));
    p90.push_back(quantile(latencies, 0.90));
    p99.push_back(quantile(latencies, 0.99));
    rate.push_back(slices.ops[s] / window.slice_seconds());
  }
  result.metric("setup_s", setup_s, "s");
  result.metric("p50_us", median_of(p50), "us");
  result.metric("p90_us", median_of(p90), "us");
  result.metric("ops_per_s", median_of(rate), "1/s");
  result.metric("peak_rss_mb", rss_mb, "MiB");
  result.add_record("samples", num(static_cast<double>(samples)));
  result.add_record("p99_us", num(median_of(p99)));
}

std::string num(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(std::string_view s) {
  std::string out(1, '"');
  out += rlv::json_escape(s);
  out += '"';
  return out;
}

JsonObject& JsonObject::raw(std::string_view key, std::string_view json) {
  if (!body_.empty()) body_ += ',';
  body_ += quote(key) + ":" + std::string(json);
  return *this;
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

// ---------------------------------------------------------------------------
// Daemon.

namespace {

/// Reads from `fd` until `until` returns true on the text so far, EOF, or
/// the deadline. Returns everything read.
template <typename Pred>
std::string read_until(int fd, int timeout_ms, Pred until) {
  std::string text;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  char buf[4096];
  while (!until(text)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) break;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  return text;
}

}  // namespace

Daemon::Daemon(const std::string& rlvd_path) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // The daemon dies with this process, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int null_fd = ::open("/dev/null", O_RDWR);
    ::dup2(null_fd, 0);
    ::dup2(null_fd, 1);
    ::dup2(fds[1], 2);
    // Users start rlvd with the port only: default jobs, reactors, cache.
    char* const argv[] = {const_cast<char*>(rlvd_path.c_str()),
                          const_cast<char*>("--serve"),
                          const_cast<char*>("0"), nullptr};
    ::execv(rlvd_path.c_str(), argv);
    ::_exit(127);
  }
  ::close(fds[1]);
  stderr_fd_ = fds[0];
  const std::string banner = read_until(stderr_fd_, 30000, [](const std::string& t) {
    return t.find('\n') != std::string::npos;
  });
  const std::size_t at = banner.find("serving on ");
  const std::size_t colon = at == std::string::npos ? at : banner.find(':', at);
  if (colon == std::string::npos) {
    stop();
    throw std::runtime_error("rlvd did not start: " + banner);
  }
  port_ = static_cast<std::uint16_t>(std::stoi(banner.substr(colon + 1)));
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const { return perfbench::peak_rss_mb(pid_); }

void Daemon::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    // rlvd drains and prints its summary; reading to EOF keeps the pipe
    // from filling while it does.
    (void)read_until(stderr_fd_, 15000, [](const std::string&) { return false; });
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stderr_fd_ >= 0) {
    ::close(stderr_fd_);
    stderr_fd_ = -1;
  }
}

DaemonStats fetch_stats(std::uint16_t port) {
  rlv::net::Client client;
  client.connect("127.0.0.1", port);
  const rlv::net::JsonValue doc =
      rlv::net::parse_json(client.call("{\"op\":\"stats\",\"id\":1}"));
  const rlv::net::JsonValue* stats = doc.find("stats");
  const rlv::net::JsonValue* server = doc.find("server");
  const rlv::net::JsonValue* caches = stats ? stats->find("caches") : nullptr;
  if (!caches || !server) throw std::runtime_error("malformed stats response");
  const auto field = [](const rlv::net::JsonValue& obj, const char* name) {
    const rlv::net::JsonValue* v = obj.find(name);
    return v ? v->as_number() : 0.0;
  };
  const auto cache = [&](const char* name) {
    DaemonStats::Cache c;
    if (const rlv::net::JsonValue* obj = caches->find(name)) {
      c.hits = field(*obj, "hits");
      c.coalesced = field(*obj, "coalesced");
      c.misses = field(*obj, "misses");
      c.evictions = field(*obj, "evictions");
    }
    return c;
  };
  DaemonStats s;
  s.verdicts = cache("verdicts");
  s.systems = cache("systems");
  s.prefixes = cache("prefixes");
  s.translations = cache("translations");
  s.monitors = cache("monitors");
  s.requests = field(*server, "requests");
  s.bytes_read = field(*server, "bytes_read");
  s.bytes_written = field(*server, "bytes_written");
  s.overload_rejects = field(*server, "overload_rejects");
  s.protocol_errors = field(*server, "protocol_errors");
  return s;
}

// ---------------------------------------------------------------------------
// Tracer.

std::size_t Tracer::begin(std::uint64_t request, const char* name,
                          std::int64_t parent, Clock::time_point start) {
  spans_.push_back({request, name, parent, us_between(epoch_, start), 0});
  return spans_.size() - 1;
}

void Tracer::end(std::size_t span, Clock::time_point end) {
  spans_[span].end_us = us_between(epoch_, end);
}

std::size_t Tracer::add(std::uint64_t request, const char* name,
                        std::int64_t parent, Clock::time_point start,
                        Clock::time_point end) {
  const std::size_t i = begin(request, name, parent, start);
  this->end(i, end);
  return i;
}

std::vector<double> Tracer::self_times(std::size_t first) const {
  std::vector<double> self(spans_.size() - first);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const double duration = spans_[i].end_us - spans_[i].start_us;
    self[i - first] += duration;
    if (spans_[i].parent >= static_cast<std::int64_t>(first)) {
      self[static_cast<std::size_t>(spans_[i].parent) - first] -= duration;
    }
  }
  return self;
}

void Tracer::write(std::ostream& out, std::string_view workload) const {
  for (const Span& s : spans_) {
    out << JsonObject()
               .string("workload", workload)
               .number("request", static_cast<double>(s.request))
               .string("name", s.name)
               .number("parent", static_cast<double>(s.parent))
               .number("start_us", s.start_us)
               .number("end_us", s.end_us)
               .str()
        << '\n';
  }
}

}  // namespace perfbench
