// The traced run. For a sample of every workload's seeded operations it
// (1) replays each operation in process through the public function of
// each layer, recording a span around every call, and (2) sends the same
// operation over the wire (or, for the in-process Petri pipeline, runs it
// as the untraced workload does) as the end-to-end span. A layer's metric
// is the mean self time of its spans per operation. Each workload's named
// residual is its traced end-to-end median minus the layers of a median
// operation (see Sample::breakdown), so layers and residual add up to the
// median exactly; the record also gives the same identity at the mean.

#include <algorithm>
#include <fstream>
#include <future>
#include <map>

#include "bench.hpp"
#include "inputs.hpp"
#include "rlv/cert/certificate.hpp"
#include "rlv/engine/engine.hpp"
#include "rlv/engine/record.hpp"
#include "rlv/hom/image.hpp"
#include "rlv/hom/simplicity.hpp"
#include "rlv/io/format.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/net/client.hpp"
#include "rlv/net/protocol.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"

namespace perfbench {

namespace {

using namespace rlv;
using rlv::net::Client;

/// Sample sizes. serve_cold's covers more than 256 systems, the default
/// cache capacity, so its caches evict as in the untraced run.
constexpr std::size_t kWarmSample = 3000;
constexpr std::size_t kColdSample = 1200;
constexpr std::size_t kStepSample = 3000;
constexpr std::size_t kPetriRounds = 4;

/// One workload's traced sample: the end-to-end value of every operation
/// and, per layer, that operation's self time in the layer.
struct Sample {
  std::string workload;
  Tracer tracer;
  std::vector<double> e2e;
  std::vector<std::string> order;  // layers in pipeline order
  std::map<std::string, std::vector<double>> values;  // per layer, per op
  std::map<std::string, double> current;              // the op in progress
  std::string residual;

  void add(const std::string& layer, double us) {
    if (values.find(layer) == values.end()) {
      order.push_back(layer);
      values[layer].assign(e2e.size(), 0.0);
    }
    current[layer] += us;
  }
  /// Closes the operation in progress with its end-to-end time.
  void finish(double e2e_us) {
    e2e.push_back(e2e_us);
    for (auto& [layer, per_op] : values) per_op.push_back(current[layer]);
    current.clear();
  }

  /// Mean per operation over the whole sample.
  [[nodiscard]] double layer_mean(const std::string& layer) const {
    const auto it = values.find(layer);
    return it == values.end() ? 0 : mean(it->second);
  }
  [[nodiscard]] double median() const { return median_of(e2e); }

  /// Operations whose end-to-end time ranks in the middle fifth: the
  /// layers of a median operation are their mean over this band.
  [[nodiscard]] std::vector<std::size_t> median_band() const {
    std::vector<std::size_t> ranked(e2e.size());
    for (std::size_t i = 0; i < ranked.size(); ++i) ranked[i] = i;
    std::sort(ranked.begin(), ranked.end(),
              [&](std::size_t a, std::size_t b) { return e2e[a] < e2e[b]; });
    const std::size_t lo = ranked.size() * 2 / 5;
    const std::size_t hi = std::max(lo + 1, ranked.size() * 3 / 5);
    return {ranked.begin() + static_cast<std::ptrdiff_t>(lo),
            ranked.begin() + static_cast<std::ptrdiff_t>(hi)};
  }
  [[nodiscard]] double band_mean(const std::string& layer,
                                 const std::vector<std::size_t>& band) const {
    double sum = 0;
    for (const std::size_t i : band) sum += values.at(layer)[i];
    return sum / static_cast<double>(band.size());
  }
  /// The named residual: the end-to-end median minus the layers of a
  /// median operation.
  [[nodiscard]] double residual_us() const {
    const std::vector<std::size_t> band = median_band();
    double sum = 0;
    for (const std::string& layer : order) sum += band_mean(layer, band);
    return median() - sum;
  }

  /// The layers add up twice: the median band's layer means plus the
  /// residual give the end-to-end median, and the layer means over all
  /// operations plus residual_at_mean give the end-to-end mean.
  [[nodiscard]] std::string breakdown() const {
    const std::vector<std::size_t> band = median_band();
    JsonObject at_median, at_mean;
    double median_sum = 0, mean_sum = 0;
    for (const std::string& layer : order) {
      at_median.number(layer, band_mean(layer, band));
      at_mean.number(layer, layer_mean(layer));
      median_sum += band_mean(layer, band);
      mean_sum += layer_mean(layer);
    }
    const double e2e_mean = mean(e2e);
    return JsonObject()
        .number("operations", static_cast<double>(e2e.size()))
        .number("e2e_p50_us", median())
        .number("e2e_mean_us", e2e_mean)
        .raw("at_median",
             JsonObject()
                 .raw("layers", at_median.str())
                 .raw("residual",
                      JsonObject().number(residual, median() - median_sum).str())
                 .number("sum_us", median())
                 .str())
        .raw("at_mean",
             JsonObject()
                 .raw("layers", at_mean.str())
                 .raw("residual",
                      JsonObject().number(residual, e2e_mean - mean_sum).str())
                 .number("sum_us", e2e_mean)
                 .str())
        .str();
  }
};

/// Adds the self time of every span of `tracer` from index `first` on to
/// the sample's layers, except the spans named in `skip`.
void collect(Sample& sample, std::size_t first,
             std::initializer_list<std::string_view> skip) {
  const std::vector<double> self = sample.tracer.self_times(first);
  const std::vector<Span>& spans = sample.tracer.spans();
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (std::find(skip.begin(), skip.end(), spans[i].name) != skip.end()) continue;
    sample.add(spans[i].name, self[i - first]);
  }
}

/// The server's caps as `rlvd --serve` sets them by default.
net::ServerLimits serve_limits() {
  net::ServerLimits limits;
  limits.max_timeout_ms = 30000;
  return limits;
}

EngineOptions serve_engine_options() {
  EngineOptions options;
  options.jobs = 2;
  options.timeout_ms = 30000;
  return options;
}

/// What one traced query hands back for per-layer accounting.
struct QueryTrace {
  Verdict verdict;
  double e2e_us = 0;
  bool ok = false;
};

/// Replays one query the way rlvd serves it, then sends it over the wire.
/// Spans: replay{net.client_render, net.parse_request,
/// engine.submit{engine.run_one}, engine.render_record, net.client_parse}
/// and request (the wire round trip with client render and parse, as the
/// untraced loop times it).
QueryTrace trace_query(Sample& sample, Engine& engine, Client& client,
                       const ServeItem& item, std::uint64_t id) {
  Tracer& tr = sample.tracer;
  const auto t0 = Clock::now();
  const std::size_t root = tr.begin(id, "replay", -1, t0);
  const std::string line = net::render_query_request(item.query, id, item.label);
  const auto t1 = Clock::now();
  tr.add(id, "net.client_render", static_cast<std::int64_t>(root), t0, t1);
  net::Request request = net::parse_request(line);
  net::apply_limits(request.query, serve_limits());
  const auto t2 = Clock::now();
  tr.add(id, "net.parse_request", static_cast<std::int64_t>(root), t1, t2);

  // What the callback sees, handed back through a promise.
  struct Callback {
    Clock::time_point entered, rendered;
    Verdict verdict;
    std::string record;
  };
  std::promise<Callback> promise;
  std::future<Callback> future = promise.get_future();
  const std::string property_label =
      request.query.property_automaton.empty() ? std::string() : request.label;
  const Query query = request.query;
  const auto t3 = Clock::now();
  engine.submit(request.query, [&](Verdict verdict) {
    Callback c;
    c.entered = Clock::now();
    c.record = render_query_record(id, query, verdict, request.label,
                                   property_label, engine.stats().total());
    c.rendered = Clock::now();
    c.verdict = std::move(verdict);
    promise.set_value(std::move(c));
  });
  Callback c = future.get();
  const Clock::time_point entered = c.entered;
  QueryTrace out;
  out.verdict = std::move(c.verdict);
  const std::size_t submit =
      tr.add(id, "engine.submit", static_cast<std::int64_t>(root), t3, entered);
  tr.add(id, "engine.run_one", static_cast<std::int64_t>(submit),
         entered - std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           out.verdict.millis)),
         entered);
  tr.add(id, "engine.render_record", static_cast<std::int64_t>(root), entered,
         c.rendered);
  const auto t4 = Clock::now();
  (void)net::parse_response(c.record);
  const auto t5 = Clock::now();
  tr.add(id, "net.client_parse", static_cast<std::int64_t>(root), t4, t5);
  tr.end(root, t5);

  const auto w0 = Clock::now();
  const std::size_t wire = tr.begin(id, "request", -1, w0);
  const net::Response reply = net::parse_response(
      client.call(net::render_query_request(item.query, id, item.label)));
  const auto w1 = Clock::now();
  tr.end(wire, w1);
  out.e2e_us = us_between(w0, w1);
  out.ok = reply.ok && reply.has_holds && reply.id == id && out.verdict.ok() &&
           reply.holds == out.verdict.holds;
  return out;
}

// ---------------------------------------------------------------------------

void sample_warm(const Options& opts, Sample& sample, Result& result) {
  const std::vector<ServeItem> items = warm_items(opts.seed);
  Daemon daemon(opts.rlvd);
  Engine engine(serve_engine_options());
  Client client;
  client.connect("127.0.0.1", daemon.port());
  for (std::size_t k = 0; k < items.size(); ++k) {
    (void)engine.run_one(items[k].query);
    (void)client.call(net::render_query_request(items[k].query, k, items[k].label));
  }
  for (std::size_t k = 0; k < kWarmSample; ++k) {
    const std::size_t first = sample.tracer.spans().size();
    ++result.attempted;
    const QueryTrace q =
        trace_query(sample, engine, client, items[k % items.size()], k);
    if (!q.ok) {
      ++result.failed;
      result.error("traced serve_warm query " + std::to_string(k) + " failed");
    }
    collect(sample, first, {"replay", "request"});
    sample.finish(q.e2e_us);
  }
  const DaemonStats stats = fetch_stats(daemon.port());
  sample.residual = "net.wire_residual_us";

  result.metric("net.client_render_us", sample.layer_mean("net.client_render"), "us");
  result.metric("net.parse_request_us", sample.layer_mean("net.parse_request"), "us");
  result.metric("net.client_parse_us", sample.layer_mean("net.client_parse"), "us");
  result.metric("net.wire_residual_us", sample.residual_us(), "us");
  result.metric("net.bytes_per_request",
                (stats.bytes_read + stats.bytes_written) / stats.requests, "bytes");
  result.metric("engine.run_one_us", sample.layer_mean("engine.run_one"), "us");
  result.metric("engine.submit_hop_us", sample.layer_mean("engine.submit"), "us");
  result.metric("engine.render_record_us",
                sample.layer_mean("engine.render_record"), "us");
  result.metric("engine.cache.verdicts.hit_ratio", stats.verdicts.hit_ratio(),
                "ratio");
  result.metric("net.overload_rejects", stats.overload_rejects, "count");
}

void sample_cold(const Options& opts, Sample& sample, Result& result) {
  Daemon daemon(opts.rlvd);
  Engine engine(serve_engine_options());
  Client client;
  client.connect("127.0.0.1", daemon.port());

  // Kernel stages from Verdict::profile, as layers of engine.run_one.
  const std::vector<std::pair<Stage, const char*>> stages = {
      {Stage::kParse, "io.parse"},         {Stage::kPreTrim, "omega.pre_trim"},
      {Stage::kTranslate, "ltl.translate"}, {Stage::kProduct, "omega.product"},
      {Stage::kInclusion, "lang.inclusion"}, {Stage::kEmptiness, "omega.emptiness"},
      {Stage::kComplement, "omega.complement"}, {Stage::kOther, "engine.other_stage"},
  };
  double translate_states = 0, emptiness_states = 0, inclusion_configs = 0,
         peak_antichain = 0, fair_us = 0, fair_n = 0, cert_us = 0, cert_n = 0;
  for (std::size_t k = 0; k < kColdSample; ++k) {
    const ServeItem item = cold_query(opts.seed, k);
    const std::size_t first = sample.tracer.spans().size();
    ++result.attempted;
    const QueryTrace q = trace_query(sample, engine, client, item, k);
    if (!q.ok) {
      ++result.failed;
      result.error("traced serve_cold query " + std::to_string(k) + " failed");
    }
    // engine.run_one's self time splits into the profile's stages and the
    // part no stage covers.
    collect(sample, first, {"replay", "request", "engine.run_one"});
    const QueryProfile& p = q.verdict.profile;
    for (const auto& [stage, name] : stages) {
      sample.add(name, static_cast<double>(p[stage].nanos) / 1e3);
    }
    sample.add("engine.unattributed",
               q.verdict.millis * 1e3 - static_cast<double>(p.total_nanos()) / 1e3);
    translate_states += static_cast<double>(p[Stage::kTranslate].states_built);
    emptiness_states += static_cast<double>(p[Stage::kEmptiness].states_built);
    inclusion_configs += static_cast<double>(p[Stage::kInclusion].states_built);
    peak_antichain += static_cast<double>(p[Stage::kInclusion].peak_antichain);
    if (item.query.kind == CheckKind::kFairStrong ||
        item.query.kind == CheckKind::kFairWeak) {
      fair_us += q.verdict.millis * 1e3;
      ++fair_n;
    }
    // cert.validate: the certificate check of a negative certify:true
    // verdict, timed from outside on the same witness.
    if (item.query.certify && q.verdict.ok() && !q.verdict.holds) {
      const Nfa nfa = parse_system(item.query.system);
      const Buchi system = limit_of_prefix_closed(nfa);
      const Labeling lambda = Labeling::canonical(nfa.alphabet());
      const Formula f = parse_ltl(item.query.formula);
      const Buchi property = translate_ltl(f, lambda);
      const auto c0 = Clock::now();
      cert::Validation v;
      if (q.verdict.violating_prefix) {
        v = cert::check_doomed_prefix(*q.verdict.violating_prefix, system, property);
      } else if (q.verdict.counterexample &&
                 item.query.kind == CheckKind::kRelativeSafety) {
        v = cert::check_safety_lasso(*q.verdict.counterexample, system, property,
                                     f, lambda);
      } else if (q.verdict.counterexample) {
        v = cert::check_violation_lasso(*q.verdict.counterexample, system, f,
                                        lambda);
      }
      cert_us += us_between(c0, Clock::now());
      ++cert_n;
      if (!v.valid) {
        ++result.failed;
        result.error("traced serve_cold query " + std::to_string(k) +
                     ": witness rejected");
      }
    }
    sample.finish(q.e2e_us);
  }
  const DaemonStats stats = fetch_stats(daemon.port());
  sample.residual = "net.cold_wire_residual_us";
  const double n = static_cast<double>(sample.e2e.size());

  result.metric("net.cold_wire_residual_us", sample.residual_us(), "us");
  double run_one_miss = sample.layer_mean("engine.unattributed");
  for (const auto& st : stages) run_one_miss += sample.layer_mean(st.second);
  result.metric("engine.run_one_miss_us", run_one_miss, "us");
  result.metric("engine.unattributed_us", sample.layer_mean("engine.unattributed"),
                "us");
  result.metric("engine.other_stage_us", sample.layer_mean("engine.other_stage"),
                "us");
  for (const auto& [stage, name] : stages) {
    if (stage == Stage::kOther) continue;
    result.metric(std::string(name) + "_us", sample.layer_mean(name), "us");
  }
  result.metric("ltl.translate.states", translate_states / n, "count");
  result.metric("omega.emptiness.states", emptiness_states / n, "count");
  result.metric("lang.inclusion.configs", inclusion_configs / n, "count");
  result.metric("lang.inclusion.peak_antichain", peak_antichain / n, "count");
  result.metric("fair.check_us", fair_n > 0 ? fair_us / fair_n : 0, "us");
  result.metric("cert.validate_us", cert_n > 0 ? cert_us / cert_n : 0, "us");
  result.metric("engine.cache.systems.hit_ratio", stats.systems.hit_ratio(), "ratio");
  result.metric("engine.cache.prefixes.hit_ratio", stats.prefixes.hit_ratio(),
                "ratio");
  result.metric("engine.cache.translations.hit_ratio",
                stats.translations.hit_ratio(), "ratio");
  result.metric("engine.cache.evictions",
                stats.verdicts.evictions + stats.systems.evictions +
                    stats.prefixes.evictions + stats.translations.evictions,
                "count");
}

void sample_monitor(const Options& opts, Sample& sample, Result& result) {
  const std::vector<StreamSpec> specs = stream_specs();
  constexpr std::size_t kStreams = 4;  // one per spec; stream 3 dooms
  constexpr std::size_t kTraces = 16;
  const std::vector<StreamTrace> traces =
      stream_traces(opts.seed, kTraces, kMonitorTraceLength);
  Daemon daemon(opts.rlvd);
  Engine engine(serve_engine_options());
  Client client;
  client.connect("127.0.0.1", daemon.port());

  struct Stream {
    std::size_t trace = 0, offset = 0;
    std::uint64_t local = 0, remote = 0;
  };
  std::vector<Stream> streams(kStreams);
  std::vector<bool> compiled(specs.size());
  double open_us = 0, opens = 0;
  std::uint64_t id = 0;
  const auto open = [&](Stream& st) {
    const StreamSpec& spec = specs[traces[st.trace].spec];
    const auto t0 = Clock::now();
    const MonitorOpenResult r = engine.open_monitor(spec.spec);
    if (!compiled[traces[st.trace].spec]) {
      // The first open of a spec compiles its monitor: the set-up cost.
      compiled[traces[st.trace].spec] = true;
      open_us += us_between(t0, Clock::now());
      ++opens;
    }
    if (!r.ok()) throw std::runtime_error("in-process monitor open failed");
    st.local = r.session;
    st.remote = open_session(client, spec, ++id);
    st.offset = 0;
  };
  for (std::size_t s = 0; s < kStreams; ++s) {
    streams[s].trace = s;
    open(streams[s]);
  }

  double step_ns_per_event = 0;
  for (std::size_t k = 0; k < kStepSample; ++k) {
    Stream& st = streams[k % kStreams];
    const StreamTrace& trace = traces[st.trace];
    const std::size_t n = std::min(kMonitorBatch, trace.actions.size() - st.offset);
    const std::vector<std::string> batch(
        trace.actions.begin() + static_cast<std::ptrdiff_t>(st.offset),
        trace.actions.begin() + static_cast<std::ptrdiff_t>(st.offset + n));
    ++id;
    ++result.attempted;
    Tracer& tr = sample.tracer;
    const std::size_t first = tr.spans().size();
    const auto t0 = Clock::now();
    const std::size_t root = tr.begin(id, "replay", -1, t0);
    const auto parent = static_cast<std::int64_t>(root);
    const std::string line = net::render_monitor_step_request(st.local, batch, id);
    const auto t1 = Clock::now();
    tr.add(id, "net.step_client_render", parent, t0, t1);
    const net::Request request = net::parse_request(line);
    const auto t2 = Clock::now();
    tr.add(id, "net.step_parse_request", parent, t1, t2);
    const MonitorStepResult stepped =
        engine.step_monitor(request.session, request.actions);
    const auto t3 = Clock::now();
    tr.add(id, "monitor.step", parent, t2, t3);
    step_ns_per_event += us_between(t2, t3) * 1e3 / static_cast<double>(n);
    const std::string reply_line = net::render_monitor_step(id, stepped);
    const auto t4 = Clock::now();
    tr.add(id, "net.render_step", parent, t3, t4);
    const net::Response local = net::parse_response(reply_line);
    const auto t5 = Clock::now();
    tr.add(id, "net.step_client_parse", parent, t4, t5);
    tr.end(root, t5);

    const auto w0 = Clock::now();
    const std::size_t wire = tr.begin(id, "request", -1, w0);
    const net::Response remote = net::parse_response(
        client.call(net::render_monitor_step_request(st.remote, batch, id)));
    const auto w1 = Clock::now();
    tr.end(wire, w1);
    collect(sample, first, {"replay", "request"});
    sample.finish(us_between(w0, w1));

    const std::string problem = check_step(remote, trace, st.offset, n) +
                                check_step(local, trace, st.offset, n);
    if (!problem.empty()) {
      ++result.failed;
      result.error("traced monitor_stream step: " + problem);
    }
    st.offset += n;
    if (st.offset == trace.actions.size()) {
      (void)engine.close_monitor(st.local);
      (void)client.call(net::render_monitor_close_request(st.remote, ++id));
      st.trace = (st.trace + kStreams) % kTraces;
      open(st);
    }
  }
  const DaemonStats stats = fetch_stats(daemon.port());
  sample.residual = "net.step_wire_residual_us";

  result.metric("net.step_client_render_us",
                sample.layer_mean("net.step_client_render"), "us");
  result.metric("net.step_parse_request_us",
                sample.layer_mean("net.step_parse_request"), "us");
  result.metric("net.render_step_us", sample.layer_mean("net.render_step"), "us");
  result.metric("net.step_client_parse_us",
                sample.layer_mean("net.step_client_parse"), "us");
  result.metric("net.step_wire_residual_us", sample.residual_us(), "us");
  result.metric("monitor.open_us", open_us / opens, "us");
  result.metric("monitor.step_ns_per_event",
                step_ns_per_event / static_cast<double>(kStepSample), "ns");
  result.metric("engine.cache.monitors.hit_ratio", stats.monitors.hit_ratio(),
                "ratio");
}

void sample_petri(const Options& opts, Sample& sample, Result& result) {
  const std::vector<PetriInstance> instances = petri_instances(opts.seed);
  Tracer& tr = sample.tracer;
  double unfold_states = 0;
  std::uint64_t op = 0;
  for (std::size_t round = 0; round < kPetriRounds; ++round) {
    for (const PetriInstance& instance : instances) {
      ++op;
      ++result.attempted;
      const std::size_t first = tr.spans().size();
      // The pipeline as the untraced loop runs it, one span per step.
      const auto t0 = Clock::now();
      const std::size_t root = tr.begin(op, "pipeline", -1, t0);
      const auto parent = static_cast<std::int64_t>(root);
      const ReachabilityGraph graph = build_reachability_graph(instance.file.net);
      const auto t1 = Clock::now();
      tr.add(op, "petri.unfold", parent, t0, t1);
      const Nfa system = has_maximal_words(graph.system)
                             ? extend_maximal_words(graph.system)
                             : graph.system;
      const auto t2 = Clock::now();
      tr.add(op, "hom.extend", parent, t1, t2);
      const Homomorphism h =
          petri::derive_abstraction(system.alphabet(), instance.file.hidden);
      const auto t3 = Clock::now();
      tr.add(op, "petri.derive", parent, t2, t3);
      const Formula eta = to_pnf(parse_ltl(instance.eta));
      const AbstractionVerdict v = verify_via_abstraction(system, h, eta);
      const auto t4 = Clock::now();
      tr.end(root, t4);
      unfold_states += static_cast<double>(graph.system.num_states());

      // verify_via_abstraction's own steps, each timed from outside on the
      // same inputs. abstract_relative_liveness builds the image itself,
      // so its layer is its time minus the image's.
      const auto p0 = Clock::now();
      (void)reduced_image_nfa(system, h);
      const auto p1 = Clock::now();
      (void)abstract_relative_liveness(system, h, eta);
      const auto p2 = Clock::now();
      (void)hides_divergence(system, h);
      const auto p3 = Clock::now();
      tr.add(op, "hom.image", -1, p0, p1);
      tr.add(op, "core.abstract_rl", -1, p1, p2);
      tr.add(op, "core.divergence", -1, p2, p3);
      collect(sample, first, {"pipeline", "core.abstract_rl"});
      sample.add("core.abstract_rl", us_between(p1, p2) - us_between(p0, p1));
      double simplicity = 0;
      if (v.simplicity_checked) {
        const auto s0 = Clock::now();
        (void)check_simplicity(system, h);
        const auto s1 = Clock::now();
        tr.add(op, "hom.simplicity", -1, s0, s1);
        simplicity = us_between(s0, s1);
      }
      sample.add("hom.simplicity", simplicity);
      sample.finish(us_between(t0, t4));

      if (round == 0 &&
          !pipeline_verdict_valid(instance, {v.abstract_holds, v.simplicity_checked,
                                             v.concrete_holds, v.concrete_states})) {
        ++result.failed;
        result.error("traced petri " + instance.name + " / " + instance.eta +
                     ": pipeline verdict differs from the concrete check");
      }
    }
  }
  sample.residual = "core.verify_residual_us";
  const double n = static_cast<double>(sample.e2e.size());
  result.metric("petri.unfold_us", sample.layer_mean("petri.unfold"), "us");
  result.metric("petri.unfold.states", unfold_states / n, "count");
  result.metric("hom.extend_us", sample.layer_mean("hom.extend"), "us");
  result.metric("petri.derive_us", sample.layer_mean("petri.derive"), "us");
  result.metric("hom.image_us", sample.layer_mean("hom.image"), "us");
  result.metric("core.abstract_rl_us", sample.layer_mean("core.abstract_rl"), "us");
  result.metric("core.divergence_us", sample.layer_mean("core.divergence"), "us");
  result.metric("hom.simplicity_us", sample.layer_mean("hom.simplicity"), "us");
  result.metric("core.verify_residual_us", sample.residual_us(), "us");
}

}  // namespace

void run_traced(const Options& opts, Result& result) {
  std::vector<Sample> samples(4);
  samples[0].workload = "serve_warm";
  samples[1].workload = "serve_cold";
  samples[2].workload = "monitor_stream";
  samples[3].workload = "petri_abstraction";
  sample_warm(opts, samples[0], result);
  sample_cold(opts, samples[1], result);
  sample_monitor(opts, samples[2], result);
  sample_petri(opts, samples[3], result);

  JsonObject breakdown;
  std::ofstream spans;
  if (!opts.out_dir.empty()) {
    spans.open(opts.out_dir + "/" + opts.workload + "-seed" +
               std::to_string(opts.seed) + ".spans.jsonl");
  }
  double traced_p50 = 0;
  for (const Sample& s : samples) {
    breakdown.raw(s.workload, s.breakdown());
    if (spans) s.tracer.write(spans, s.workload);
    if (s.workload == opts.workload) traced_p50 = s.median();
  }
  result.metric("trace.e2e_p50_us", traced_p50, "us");
  result.add_record("breakdown", breakdown.str());
}

}  // namespace perfbench
