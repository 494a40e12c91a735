#pragma once

// Seeded inputs of the four workloads, and the correctness checks that run
// after each timed section. Everything here is a pure function of the seed.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rlv/core/preservation.hpp"
#include "rlv/engine/query.hpp"
#include "rlv/net/json.hpp"
#include "rlv/petri/format.hpp"

namespace rlv::net {
class Client;
struct Response;
}  // namespace rlv::net

namespace perfbench {

struct ServeItem {
  rlv::Query query;
  std::string label;
};

/// serve_warm: a fixed mix of rl/rs/sat queries over five small systems
/// (Figures 2 and 3, token rings of 3 to 5 stations); the seed picks ring
/// stations.
[[nodiscard]] std::vector<ServeItem> warm_items(std::uint64_t seed);

/// serve_cold: the index-th query of the stream. Every index gives a
/// distinct query; each system carries kColdQueriesPerSystem of them.
inline constexpr std::uint64_t kColdQueriesPerSystem = 4;
[[nodiscard]] ServeItem cold_query(std::uint64_t seed, std::uint64_t index);

/// How a verdict was confirmed.
enum class Checked : std::uint8_t {
  kOracle,   // holds compared with the rlv::cert brute-force oracle
  kWitness,  // too large for the oracle; the witness was validated
  kLibrary,  // fairness verdict recomputed in process (no fair oracle)
  kNone,     // a positive verdict too large for the oracle
};

struct CheckResult {
  bool ok = true;
  Checked how = Checked::kNone;
  std::string detail;
};

/// Checks one query record (as returned by rlvd) against the query.
[[nodiscard]] CheckResult check_verdict(const rlv::Query& query,
                                        const rlv::net::JsonValue& record);

// ---------------------------------------------------------------------------
// monitor_stream.

struct StreamSpec {
  rlv::MonitorSpec spec;
  std::string label;
};

/// The few specs sessions open; spec kFigure3Spec is the paper's erroneous
/// server under G F result, on which a lock dooms the stream.
[[nodiscard]] std::vector<StreamSpec> stream_specs();
inline constexpr std::size_t kFigure3Spec = 3;

/// Actions per monitor_step request, and per seeded trace.
inline constexpr std::size_t kMonitorBatch = 64;
inline constexpr std::size_t kMonitorTraceLength = 4096;

struct StreamTrace {
  std::size_t spec = 0;
  std::vector<std::string> actions;
  /// Figure 3 traces: the position of the dooming lock.
  std::optional<std::size_t> doom_index;
};

/// `count` traces of `length` actions. Every fourth trace is a Figure 3
/// dooming trace; the rest stay live on their spec throughout.
[[nodiscard]] std::vector<StreamTrace> stream_traces(std::uint64_t seed,
                                                     std::size_t count,
                                                     std::size_t length);

/// Opens a session on `spec` over the wire; throws unless it opens live.
[[nodiscard]] std::uint64_t open_session(rlv::net::Client& client,
                                         const StreamSpec& spec,
                                         std::uint64_t id);

/// Empty when the reply to the batch trace[offset, offset + n) is what the
/// trace predicts (live, or doomed at its lock); otherwise what is wrong.
[[nodiscard]] std::string check_step(const rlv::net::Response& reply,
                                     const StreamTrace& trace,
                                     std::size_t offset, std::size_t n);

/// Checks a doomed-prefix witness (action names) with rlv::cert.
[[nodiscard]] bool doom_witness_valid(const StreamSpec& spec,
                                      const std::vector<std::string>& witness);

// ---------------------------------------------------------------------------
// petri_abstraction.

struct PetriInstance {
  std::string name;
  rlv::petri::NetFile file;
  std::string eta;
};

[[nodiscard]] std::vector<PetriInstance> petri_instances(std::uint64_t seed);

/// The behavior of one net: its reachability graph, extended by padding
/// when the net can deadlock (Theorems 8.2/8.3 need h(L) free of maximal
/// words).
[[nodiscard]] rlv::Nfa unfold_system(const rlv::petri::NetFile& file);

/// The pipeline's outcome in comparable form.
struct PipelineSummary {
  bool abstract_holds = false;
  bool simplicity_checked = false;
  std::optional<bool> concrete_holds;
  std::size_t concrete_states = 0;

  friend bool operator==(const PipelineSummary&,
                         const PipelineSummary&) = default;
};

/// build_reachability_graph -> derive_abstraction -> verify_via_abstraction.
[[nodiscard]] PipelineSummary run_pipeline(const PetriInstance& instance);

/// Compares a set concrete_holds with concrete_relative_liveness.
[[nodiscard]] bool pipeline_verdict_valid(const PetriInstance& instance,
                                          const PipelineSummary& summary);

}  // namespace perfbench
