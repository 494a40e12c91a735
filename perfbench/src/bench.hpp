#pragma once

// Shared pieces of the rlv benchmark program: run options, the result every
// workload fills in, sample statistics, the rlvd child process, and the
// span recorder of the traced run.

#include <sys/types.h>

#include <array>
#include <chrono>
#include <iosfwd>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Every closed loop runs this long before its measured window opens, so
/// the window starts from a steady state (threads scheduled, CPU clocked
/// up, caches settled). Its operations are checked but not timed.
inline constexpr double kSettleSeconds = 0.5;

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 8;

/// The measured window is cut into kSlices equal consecutive slices, and
/// each figure is reported as its median over the slices.
inline constexpr int kSlices = 8;

struct Window {
  Clock::time_point open;
  Clock::time_point close;

  /// The slice an operation starting at `t` belongs to; -1 before the
  /// window opens or after it closes.
  [[nodiscard]] int slice(Clock::time_point t) const;
  [[nodiscard]] double slice_seconds() const;
};
/// The measured window of a closed loop starting now.
[[nodiscard]] Window measured_window(double seconds);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string rlvd;        // path of the rlvd binary under test
  std::string out_dir;     // where the traced run writes its spans
  std::string commit;      // git commit of the tree, "unknown" outside git
  std::string source_sha;  // digest of the sources that were built
};

/// One metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `record` holds extra JSON members
/// (without braces) for the record line that precedes the result line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // correctness failures, for stderr
  std::string record;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void error(std::string what) { errors.push_back(std::move(what)); }
  void add_record(std::string_view key, std::string_view json);
};

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolated quantile of `values` (sorted in place), q in [0, 1].
[[nodiscard]] double quantile(std::vector<double>& values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] double median_of(std::vector<double> values);

/// What a closed loop measured, per slice of its window. The run reports
/// the median over slices of each figure, so a slow spell of the host that
/// covers a minority of the slices does not move the result.
struct Slices {
  std::array<std::vector<double>, kSlices> latencies_us;
  std::array<double, kSlices> ops{};  // operations, or events, per slice

  /// Records one operation that started at `start` and took `us`.
  void record(const Window& window, Clock::time_point start, double us,
              double ops_done = 1);
  /// Adds another caller's slices to these.
  void merge(const Slices& other);
};

/// The end-to-end metrics every workload reports, under the names
/// BENCHMARK.json lists: setup_s, p50_us, p90_us, ops_per_s, peak_rss_mb.
/// p99 goes to the record only: on a shared host it moved by up to 2x
/// between identical runs, so no bound on it would hold. Throws when a
/// slice holds fewer than 1000 operations, since its p99 would then have
/// fewer than ten samples beyond it.
void report_end_to_end(Result& result, double setup_s, const Window& window,
                       const Slices& slices, double rss_mb);

// ---------------------------------------------------------------------------
// JSON writing.

/// Text that reads back as exactly `v` (finite values only).
[[nodiscard]] std::string num(double v);
[[nodiscard]] std::string quote(std::string_view s);

/// Builds a JSON object member by member.
class JsonObject {
 public:
  JsonObject& raw(std::string_view key, std::string_view json);
  JsonObject& number(std::string_view key, double v) {
    return raw(key, num(v));
  }
  JsonObject& string(std::string_view key, std::string_view v) {
    return raw(key, quote(v));
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Process helpers.

/// VmHWM of a process in MiB, from /proc/<pid>/status (0 = this process).
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

/// One `rlvd --serve 0` child. The port is read from its startup line. The
/// destructor stops it with SIGTERM (SIGKILL after a grace period) and
/// reaps it, so no daemon outlives its owner's scope.
class Daemon {
 public:
  explicit Daemon(const std::string& rlvd_path);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] double peak_rss_mb() const;

 private:
  void stop();

  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Counters from one `stats` request: the engine caches and the server.
struct DaemonStats {
  struct Cache {
    double hits = 0, coalesced = 0, misses = 0, evictions = 0;
    [[nodiscard]] double hit_ratio() const {
      const double lookups = hits + coalesced + misses;
      return lookups > 0 ? hits / lookups : 0;
    }
  };
  Cache verdicts, systems, prefixes, translations, monitors;
  double requests = 0, bytes_read = 0, bytes_written = 0,
         overload_rejects = 0, protocol_errors = 0;
};
[[nodiscard]] DaemonStats fetch_stats(std::uint16_t port);

// ---------------------------------------------------------------------------
// Spans of the traced run.

struct Span {
  std::uint64_t request = 0;
  const char* name = "";
  std::int64_t parent = -1;  // index into the span list, -1 for a root
  double start_us = 0;       // since the tracer's epoch
  double end_us = 0;
};

/// In-memory span list; written out once, at the end of the run.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span at `start` (default: now) and returns its index.
  std::size_t begin(std::uint64_t request, const char* name,
                    std::int64_t parent = -1,
                    Clock::time_point start = Clock::now());
  void end(std::size_t span, Clock::time_point end = Clock::now());
  /// A finished span with explicit bounds.
  std::size_t add(std::uint64_t request, const char* name,
                  std::int64_t parent, Clock::time_point start,
                  Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span from index `first` on: its duration minus the time its
  /// children cover. Children always follow their parent.
  [[nodiscard]] std::vector<double> self_times(std::size_t first = 0) const;

  /// Appends one JSON line per span, tagged with the sample's workload.
  void write(std::ostream& out, std::string_view workload) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Workloads. Each runs the untraced closed loop for opts.seconds, checks
// every answer after the timed section, and fills in the end-to-end
// metrics.

void run_serve_warm(const Options& opts, Result& result);
void run_serve_cold(const Options& opts, Result& result);
void run_monitor_stream(const Options& opts, Result& result);
void run_petri_abstraction(const Options& opts, Result& result);

/// The traced run: replays a sample of every workload through the layers'
/// public functions and over the wire, and fills in the per-layer metrics.
void run_traced(const Options& opts, Result& result);

}  // namespace perfbench
