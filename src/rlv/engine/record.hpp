#pragma once

// JSON rendering of per-query result records — the line-oriented output
// format of the rlvd front end, factored out so tests can round-trip a
// record (render → re-parse → re-validate the witness) without spawning
// the tool. One record per query:
//
//   {"id":0,"system":"fig2.rlv","check":"rl","formula":"G F result",
//    "ok":true,"holds":false,
//    "witness":"req.req",                       // human-readable
//    "witness_prefix":["req","req"],            // machine-readable
//    "ms":0.42,"stages":{...},"cache":{...}}
//
// Lasso witnesses (rs/sat/fair) additionally carry "witness_period". The
// structured arrays list one ESCAPED action name per symbol — unlike the
// dot-joined "witness" string they are unambiguous even when action names
// contain dots, quotes, or backslashes, so they are what certificate
// round-trips should consume. "stages" holds each run stage's exclusive ms.

#include <cstddef>
#include <string>

#include "rlv/engine/query.hpp"

namespace rlv {

/// Full EngineStats snapshot as one JSON object — the shared serialization
/// behind `rlvd`'s stderr summary / `--metrics` block and the rlv::net
/// server's `stats` response:
///
///   {"queries":6,"certificates_checked":4,"certificates_failed":0,
///    "caches":{"systems":{"hits":4,"coalesced":0,"misses":2,
///              "evictions":0},...,"total":{...}},"monitor":{...},
///    "stages":{"parse":{"calls":6,"states":0,"peak_frontier":0,
///              "peak_kernel_bytes":0,"ms":0.1},...}}
///
/// Stages that never ran are omitted; the seven caches and "total" are
/// always present.
[[nodiscard]] std::string render_stats(const EngineStats& stats);

/// Renders one rlvd result record. `system_label` / `property_label` are
/// presentation strings (the paths from the batch file; property empty for
/// the formula flavor). Witness symbols are rendered as action names
/// through the verdict's own alphabet. `cache` is the engine-wide
/// cumulative counter snapshot to embed (Engine::cache_totals).
[[nodiscard]] std::string render_query_record(std::size_t id,
                                              const Query& query,
                                              const Verdict& verdict,
                                              const std::string& system_label,
                                              const std::string& property_label,
                                              const CacheCounters& cache);

}  // namespace rlv
