#include "rlv/engine/record.hpp"

#include "rlv/io/json_writer.hpp"

namespace rlv {

namespace {

void write_counters(JsonWriter& w, std::string_view name,
                    const CacheCounters& c) {
  w.key(name).begin_object().field("hits", c.hits);
  w.field("coalesced", c.coalesced).field("misses", c.misses);
  w.field("evictions", c.evictions).end_object();
}

void write_word(JsonWriter& w, std::string_view name, const Alphabet& sigma,
                const Word& word) {
  w.key(name).begin_array();
  for (const Symbol a : word) w.value(sigma.name(a));
  w.end_array();
}

/// Writes `"stage":...` for every stage that ran, in stage order; `fn`
/// writes the value from the stage's metrics.
template <typename Fn>
void write_stages(JsonWriter& w, const QueryProfile& profile, Fn&& fn) {
  w.key("stages").begin_object();
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const StageMetrics& m = profile.stages[i];
    if (m.calls == 0 && m.nanos == 0) continue;
    w.key(stage_name(static_cast<Stage>(i)));
    fn(m, static_cast<double>(m.nanos) / 1e6);
  }
  w.end_object();
}

}  // namespace

std::string render_stats(const EngineStats& stats) {
  std::string out;
  JsonWriter w(out);
  w.begin_object().field("queries", stats.queries_run);
  w.field("certificates_checked", stats.certificates_checked);
  w.field("certificates_failed", stats.certificates_failed);
  w.key("caches").begin_object();
  write_counters(w, "systems", stats.systems);
  write_counters(w, "behaviors", stats.behaviors);
  write_counters(w, "prefixes", stats.prefixes);
  write_counters(w, "translations", stats.translations);
  write_counters(w, "properties", stats.properties);
  write_counters(w, "verdicts", stats.verdicts);
  write_counters(w, "monitors", stats.monitors);
  write_counters(w, "total", stats.total());
  const MonitorCounters& mon = stats.monitor;
  w.end_object().key("monitor").begin_object();
  w.field("sessions_open", mon.sessions_open);
  w.field("sessions_peak", mon.sessions_peak);
  w.field("sessions_total", mon.sessions_opened);
  w.field("idle_reclaimed", mon.idle_reclaimed);
  w.field("steps", mon.steps).field("dooms", mon.dooms).end_object();
  write_stages(w, stats.stages, [&w](const StageMetrics& m, double ms) {
    w.begin_object().field("calls", m.calls);
    w.field("states", m.states_built.load(std::memory_order_relaxed));
    w.field("peak_frontier", m.peak_antichain.load(std::memory_order_relaxed));
    w.field("peak_kernel_bytes",
            m.peak_memory_bytes.load(std::memory_order_relaxed));
    w.field("ms", ms).end_object();
  });
  w.end_object();
  return out;
}

void append_query_record(std::string& out, std::size_t id,
                         const Query& query, const Verdict& v,
                         std::string_view system_label,
                         std::string_view property_label,
                         const CacheCounters& cache) {
  JsonWriter w(out);
  w.begin_object().field("id", id).field("system", system_label);
  w.field("check", check_kind_name(query.kind));
  if (!property_label.empty()) {
    w.field("property", property_label);
  } else {
    w.field("formula", query.formula);
  }
  w.field("ok", v.ok());
  if (v.ok()) {
    w.field("holds", v.holds);
    // Witness symbols are ids over the alphabet that decided the check.
    const Alphabet* sigma = v.alphabet.get();
    if (v.violating_prefix) {
      w.field("witness", sigma->format(*v.violating_prefix));
      write_word(w, "witness_prefix", *sigma, *v.violating_prefix);
    } else if (v.counterexample) {
      const Lasso& lasso = *v.counterexample;
      w.field("witness", sigma->format(lasso.prefix) + " (" +
                             sigma->format(lasso.period) + ")^w");
      write_word(w, "witness_prefix", *sigma, lasso.prefix);
      write_word(w, "witness_period", *sigma, lasso.period);
    }
  } else if (v.resource_exhausted) {
    w.field("resource_exhausted", true).field("stage", v.exhausted_stage);
  } else {
    w.field("error", v.error);
  }
  w.field("ms", v.millis);
  write_stages(w, v.profile,
               [&w](const StageMetrics&, double ms) { w.value(ms); });
  write_counters(w, "cache", cache);
  w.end_object();
}

std::string render_query_record(std::size_t id, const Query& query,
                                const Verdict& verdict,
                                std::string_view system_label,
                                std::string_view property_label,
                                const CacheCounters& cache) {
  std::string out;
  append_query_record(out, id, query, verdict, system_label, property_label,
                      cache);
  return out;
}

}  // namespace rlv
