#include "rlv/engine/record.hpp"

#include <sstream>

#include "rlv/io/format.hpp"

namespace rlv {

namespace {

void append_word_array(std::ostream& out, const char* field,
                       const Alphabet& sigma, const Word& w) {
  out << ",\"" << field << "\":[";
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << json_escape(sigma.name(w[i])) << '"';
  }
  out << ']';
}

void append_counters(std::ostream& out, const char* name,
                     const CacheCounters& c) {
  out << '"' << name << "\":{\"hits\":" << c.hits
      << ",\"coalesced\":" << c.coalesced << ",\"misses\":" << c.misses
      << ",\"evictions\":" << c.evictions << '}';
}

}  // namespace

std::string render_stats(const EngineStats& stats) {
  std::ostringstream out;
  out << "{\"queries\":" << stats.queries_run
      << ",\"certificates_checked\":" << stats.certificates_checked
      << ",\"certificates_failed\":" << stats.certificates_failed
      << ",\"caches\":{";
  append_counters(out, "systems", stats.systems);
  out << ',';
  append_counters(out, "behaviors", stats.behaviors);
  out << ',';
  append_counters(out, "prefixes", stats.prefixes);
  out << ',';
  append_counters(out, "translations", stats.translations);
  out << ',';
  append_counters(out, "properties", stats.properties);
  out << ',';
  append_counters(out, "verdicts", stats.verdicts);
  out << ',';
  append_counters(out, "monitors", stats.monitors);
  out << ',';
  append_counters(out, "total", stats.total());
  out << "},\"monitor\":{\"sessions_open\":" << stats.monitor.sessions_open
      << ",\"sessions_peak\":" << stats.monitor.sessions_peak
      << ",\"sessions_total\":" << stats.monitor.sessions_opened
      << ",\"idle_reclaimed\":" << stats.monitor.idle_reclaimed
      << ",\"steps\":" << stats.monitor.steps
      << ",\"dooms\":" << stats.monitor.dooms << "},\"stages\":{";
  bool first = true;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const StageMetrics& m = stats.stages.stages[i];
    if (m.calls == 0 && m.nanos == 0) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << stage_name(static_cast<Stage>(i))
        << "\":{\"calls\":" << m.calls << ",\"states\":" << m.states_built
        << ",\"peak_frontier\":" << m.peak_antichain
        << ",\"peak_kernel_bytes\":" << m.peak_memory_bytes
        << ",\"ms\":" << static_cast<double>(m.nanos) / 1e6 << '}';
  }
  out << "}}";
  return out.str();
}

std::string render_stage_times(const QueryProfile& profile) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const StageMetrics& m = profile.stages[i];
    if (m.calls == 0 && m.nanos == 0) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << stage_name(static_cast<Stage>(i))
        << "\":" << static_cast<double>(m.nanos) / 1e6;
  }
  out << '}';
  return out.str();
}

std::string render_query_record(std::size_t id, const Query& query,
                                const Verdict& v,
                                const std::string& system_label,
                                const std::string& property_label,
                                const CacheCounters& cache) {
  std::ostringstream out;
  out << "{\"id\":" << id << ",\"system\":\"" << json_escape(system_label)
      << "\",\"check\":\"" << check_kind_name(query.kind) << '"';
  if (!property_label.empty()) {
    out << ",\"property\":\"" << json_escape(property_label) << '"';
  } else {
    out << ",\"formula\":\"" << json_escape(query.formula) << '"';
  }
  out << ",\"ok\":" << (v.ok() ? "true" : "false");
  if (v.ok()) {
    out << ",\"holds\":" << (v.holds ? "true" : "false");
    // Witness symbols are ids over the alphabet that decided the check.
    if (v.violating_prefix) {
      const Alphabet& sigma = *v.alphabet;
      out << ",\"witness\":\""
          << json_escape(sigma.format(*v.violating_prefix)) << '"';
      append_word_array(out, "witness_prefix", sigma, *v.violating_prefix);
    } else if (v.counterexample) {
      const Alphabet& sigma = *v.alphabet;
      out << ",\"witness\":\""
          << json_escape(sigma.format(v.counterexample->prefix) + " (" +
                         sigma.format(v.counterexample->period) + ")^w")
          << '"';
      append_word_array(out, "witness_prefix", sigma,
                        v.counterexample->prefix);
      append_word_array(out, "witness_period", sigma,
                        v.counterexample->period);
    }
  } else if (v.resource_exhausted) {
    out << ",\"resource_exhausted\":true,\"stage\":\""
        << json_escape(v.exhausted_stage) << '"';
  } else {
    out << ",\"error\":\"" << json_escape(v.error) << '"';
  }
  out << ",\"ms\":" << v.millis << ",\"stages\":" << render_stage_times(v.profile)
      << ",\"cache\":{\"hits\":" << cache.hits
      << ",\"coalesced\":" << cache.coalesced << ",\"misses\":" << cache.misses
      << ",\"evictions\":" << cache.evictions << "}}";
  return out.str();
}

}  // namespace rlv
