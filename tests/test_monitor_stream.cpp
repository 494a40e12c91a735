// Tests for the streaming monitor subsystem end to end: SessionTable slab
// mechanics (free-list reuse, stale generations, caps, idle GC), the engine
// open/step/close entry points, and the rlv::net wire protocol under an
// event loop over real sockets — hostile inputs, deterministic session-cap
// overloads, session reclamation on RST / idle timeout / drain, and a
// concurrent streamed-vs-one-shot verdict parity check (the TSan target).

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rlv/engine/engine.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/io/format.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/monitor/session.hpp"
#include "rlv/net/client.hpp"
#include "rlv/net/json.hpp"
#include "rlv/net/protocol.hpp"
#include "rlv/net/server.hpp"
#include "rlv/omega/limit.hpp"

namespace rlv {
namespace {

using net::JsonValue;
using net::parse_json;

std::shared_ptr<const monitor::MonitorAutomaton> fig2_automaton() {
  const Nfa fig2 = figure2_system();
  return std::make_shared<const monitor::MonitorAutomaton>(
      limit_of_prefix_closed(fig2), parse_ltl("G F result"),
      Labeling::canonical(fig2.alphabet()));
}

// ---------------------------------------------------------------------------
// SessionTable slab mechanics.

TEST(SessionTable, SlotReuseBumpsGenerationAndRejectsStaleIds) {
  monitor::SessionTable table;
  const auto automaton = fig2_automaton();

  const std::uint64_t first = table.open(automaton, 0);
  ASSERT_NE(first, 0u);
  ASSERT_NE(table.find(first, 1), nullptr);
  EXPECT_TRUE(table.close(first));
  EXPECT_EQ(table.find(first, 2), nullptr);
  EXPECT_FALSE(table.close(first));  // double close

  // The slot is reused, but under a fresh generation: the old id stays dead.
  const std::uint64_t second = table.open(automaton, 3);
  ASSERT_NE(second, 0u);
  EXPECT_NE(second, first);
  EXPECT_EQ(second & 0xffffffffu, first & 0xffffffffu);  // same slot index
  EXPECT_EQ(table.find(first, 4), nullptr);
  ASSERT_NE(table.find(second, 4), nullptr);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SessionTable, IdsStayExactJsonIntegersAcrossGenerationWrap) {
  // Ids travel as JSON numbers, read back exactly only below 2^53; a slot
  // reopened 2^21 times wraps its generation instead of crossing that.
  monitor::SessionTable table;
  const auto automaton = fig2_automaton();
  const std::uint64_t first = table.open(automaton, 0);
  std::uint64_t id = first;
  for (std::uint32_t i = 0; i < (1U << 21) - 1; ++i) {
    ASSERT_LT(id, std::uint64_t{1} << 53);
    ASSERT_TRUE(table.close(id));
    id = table.open(automaton, 0);
  }
  EXPECT_EQ(id, first);  // the generation wrapped back to 1, skipping 0
  EXPECT_NE(table.find(id, 1), nullptr);
}

TEST(SessionTable, GlobalCapIsDeterministic) {
  monitor::SessionTable table(2);
  const auto automaton = fig2_automaton();
  const std::uint64_t a = table.open(automaton, 0);
  const std::uint64_t b = table.open(automaton, 0);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(table.open(automaton, 0), 0u);  // full: 0, not a throw
  EXPECT_TRUE(table.close(a));
  EXPECT_NE(table.open(automaton, 0), 0u);  // freed capacity is reusable
  EXPECT_EQ(table.counters().peak, 2u);
  EXPECT_EQ(table.counters().opened, 3u);
}

TEST(SessionTable, IdleSweepReclaimsLeastRecentFirst) {
  monitor::SessionTable table;
  const auto automaton = fig2_automaton();
  const std::uint64_t old_session = table.open(automaton, 0);
  const std::uint64_t young = table.open(automaton, 50);
  ASSERT_NE(table.find(old_session, 60), nullptr);  // touch refreshes idle
  // old_session touched at 60, young at 50: young expires first at 100
  // with a 45ms budget.
  EXPECT_EQ(table.sweep_idle(100, 45), 1u);
  EXPECT_EQ(table.find(young, 100), nullptr);
  EXPECT_NE(table.find(old_session, 100), nullptr);
  EXPECT_EQ(table.counters().idle_reclaimed, 1u);
  EXPECT_EQ(table.sweep_idle(100, 45), 0u);  // nothing else expired
}

// ---------------------------------------------------------------------------
// Engine entry points.

TEST(EngineMonitor, OpenStepCloseDetectsDoomWithWitness) {
  Engine engine;
  MonitorSpec spec;
  spec.system = serialize_system(figure3_system());
  spec.formula = "G F result";
  spec.certify = true;

  const MonitorOpenResult open = engine.open_monitor(spec);
  ASSERT_TRUE(open.ok()) << open.error;
  ASSERT_NE(open.session, 0u);
  EXPECT_EQ(open.verdict, monitor::Verdict::kSatisfiable);
  EXPECT_TRUE(open.certified);

  const MonitorStepResult doom = engine.step_monitor(
      open.session, {"request", "yes", "result", "lock"});
  ASSERT_TRUE(doom.ok()) << doom.error;
  EXPECT_EQ(doom.verdict, monitor::Verdict::kDoomed);
  ASSERT_TRUE(doom.transition_index.has_value());
  EXPECT_EQ(*doom.transition_index, 3u);
  EXPECT_TRUE(doom.transition_doomed);
  EXPECT_FALSE(doom.witness.empty());
  EXPECT_TRUE(doom.witness_certified);
  EXPECT_EQ(doom.events, 4u);

  // A rejected batch is rejected whole: the bad action in the middle must
  // not advance the stream.
  const MonitorStepResult bad =
      engine.step_monitor(open.session, {"request", "nonsense", "yes"});
  EXPECT_EQ(bad.error, "unknown_action");
  const MonitorStepResult after = engine.step_monitor(open.session, {});
  EXPECT_EQ(after.events, 4u);  // unchanged

  const MonitorCloseResult closed = engine.close_monitor(open.session);
  EXPECT_TRUE(closed.ok());
  EXPECT_EQ(closed.events, 4u);
  EXPECT_EQ(engine.close_monitor(open.session).error, "unknown_session");
  EXPECT_EQ(engine.step_monitor(open.session, {"request"}).error,
            "unknown_session");

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.monitor.sessions_open, 0u);
  EXPECT_EQ(stats.monitor.sessions_opened, 1u);
  EXPECT_EQ(stats.monitor.steps, 4u);
  EXPECT_EQ(stats.monitor.dooms, 1u);
}

TEST(EngineMonitor, EventCapRejectsBatchWhole) {
  EngineOptions options;
  options.max_session_events = 5;
  Engine engine(options);
  MonitorSpec spec;
  spec.system = serialize_system(figure2_system());
  spec.formula = "G F result";
  const MonitorOpenResult open = engine.open_monitor(spec);
  ASSERT_TRUE(open.ok()) << open.error;

  ASSERT_TRUE(
      engine.step_monitor(open.session, {"request", "yes", "result"}).ok());
  const MonitorStepResult over = engine.step_monitor(
      open.session, {"request", "yes", "result"});  // 3 + 3 > 5
  EXPECT_EQ(over.error, "event_cap");
  const MonitorStepResult fits =
      engine.step_monitor(open.session, {"request", "yes"});
  EXPECT_TRUE(fits.ok());
  EXPECT_EQ(fits.events, 5u);
}

TEST(EngineMonitor, TableFullAndCompileErrorsAreStructured) {
  EngineOptions options;
  options.max_sessions = 1;
  Engine engine(options);
  MonitorSpec spec;
  spec.system = serialize_system(figure2_system());
  spec.formula = "G F result";
  const MonitorOpenResult first = engine.open_monitor(spec);
  ASSERT_TRUE(first.ok());
  const MonitorOpenResult full = engine.open_monitor(spec);
  EXPECT_TRUE(full.table_full);
  EXPECT_EQ(full.session, 0u);

  MonitorSpec bad = spec;
  bad.formula = "G F (";
  EXPECT_FALSE(engine.open_monitor(bad).error.empty());
  MonitorSpec both = spec;
  both.property_automaton = "x";
  EXPECT_FALSE(engine.open_monitor(both).error.empty());
}

// ---------------------------------------------------------------------------
// Wire protocol under the event loop (mirrors test_net.cpp's TestServer).

class TestServer {
 public:
  explicit TestServer(net::ServerOptions server_options = {},
                      EngineOptions engine_options = {}) {
    if (engine_options.jobs < 2) engine_options.jobs = 2;
    engine_ = std::make_unique<Engine>(engine_options);
    server_options.bind_address = "127.0.0.1";
    server_options.port = 0;
    server_ = std::make_unique<net::Server>(*engine_, server_options);
    port_ = server_->start();
    loop_ = std::thread([this] { server_->run(); });
  }

  ~TestServer() {
    server_->request_stop();
    loop_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] Engine& engine() { return *engine_; }

  [[nodiscard]] net::Client connect_client() const {
    net::Client client;
    client.connect("127.0.0.1", port_);
    return client;
  }

 private:
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<net::Server> server_;
  std::uint16_t port_ = 0;
  std::thread loop_;
};

std::uint64_t open_fig3_session(net::Client& client, bool certify = false) {
  MonitorSpec spec;
  spec.system = serialize_system(figure3_system());
  spec.formula = "G F result";
  spec.certify = certify;
  const net::Response open = net::parse_response(
      client.call(net::render_monitor_open_request(spec, 1, "fig3")));
  EXPECT_TRUE(open.ok) << open.raw;
  EXPECT_TRUE(open.has_session);
  return open.session;
}

TEST(NetMonitor, StreamedDoomCarriesCertifiedWitness) {
  TestServer ts;
  net::Client client = ts.connect_client();
  const std::uint64_t session = open_fig3_session(client, /*certify=*/true);

  const net::Response doom = net::parse_response(client.call(
      net::render_monitor_step_request(
          session, {"request", "yes", "result", "lock"}, 2)));
  EXPECT_TRUE(doom.ok) << doom.raw;
  EXPECT_EQ(doom.verdict, "doomed");
  ASSERT_TRUE(doom.has_doomed_index);
  EXPECT_EQ(doom.doomed_index, 3u);
  EXPECT_TRUE(doom.witness_certified);
  const JsonValue root = parse_json(doom.raw);
  const JsonValue* witness = root.find("witness");
  ASSERT_NE(witness, nullptr);
  EXPECT_FALSE(witness->array.empty());

  const net::Response closed = net::parse_response(
      client.call(net::render_monitor_close_request(session, 3)));
  EXPECT_TRUE(closed.ok) << closed.raw;
  EXPECT_EQ(closed.events, 4u);
}

TEST(NetMonitor, HostileInputsAnswerWithoutKillingTheConnection) {
  TestServer ts;
  net::Client client = ts.connect_client();
  const std::uint64_t session = open_fig3_session(client);

  // Unknown action name: engine-level error, connection stays usable.
  const net::Response bad_action = net::parse_response(client.call(
      net::render_monitor_step_request(session, {"frobnicate"}, 2)));
  EXPECT_FALSE(bad_action.ok);
  EXPECT_EQ(bad_action.error, "unknown_action");

  // Unknown and stale session ids.
  const net::Response unknown = net::parse_response(client.call(
      net::render_monitor_step_request(0xdeadbeefull, {"request"}, 3)));
  EXPECT_EQ(unknown.error, "unknown_session");

  // Steps after doom are legal (doom is absorbing, no new transition).
  const net::Response doom = net::parse_response(client.call(
      net::render_monitor_step_request(
          session, {"request", "yes", "result", "lock"}, 4)));
  EXPECT_EQ(doom.verdict, "doomed");
  const net::Response after = net::parse_response(client.call(
      net::render_monitor_step_request(session, {"request"}, 5)));
  EXPECT_TRUE(after.ok) << after.raw;
  EXPECT_EQ(after.verdict, "doomed");
  EXPECT_FALSE(after.has_doomed_index);

  // Close, double close.
  EXPECT_TRUE(net::parse_response(client.call(
                                      net::render_monitor_close_request(
                                          session, 6)))
                  .ok);
  const net::Response again = net::parse_response(
      client.call(net::render_monitor_close_request(session, 7)));
  EXPECT_EQ(again.error, "unknown_session");

  // Malformed monitor requests are protocol errors (answer + close), the
  // same strict reader as queries: non-string action element...
  net::Client hostile = ts.connect_client();
  const net::Response non_string = net::parse_response(hostile.call(
      R"({"op":"monitor_step","id":8,"session":1,"actions":[1,2]})"));
  EXPECT_FALSE(non_string.ok);
  EXPECT_EQ(non_string.error, "bad_request");
  // ...unknown fields, CR-terminated lines, missing session.
  net::Client hostile2 = ts.connect_client();
  hostile2.send_line("{\"op\":\"monitor_open\",\"sytem\":\"x\"}\r");
  const net::Response typo = net::parse_response(hostile2.read_line());
  EXPECT_EQ(typo.error, "bad_request");
  net::Client hostile3 = ts.connect_client();
  const net::Response no_session = net::parse_response(
      hostile3.call(R"({"op":"monitor_close","id":9})"));
  EXPECT_EQ(no_session.error, "bad_request");

  // Oversized step batch: deterministic error, connection survives.
  net::ServerOptions small;
  small.limits.max_steps_per_request = 2;
  TestServer ts2(small);
  net::Client client2 = ts2.connect_client();
  const std::uint64_t session2 = open_fig3_session(client2);
  const net::Response too_many = net::parse_response(client2.call(
      net::render_monitor_step_request(session2,
                                       {"request", "yes", "result"}, 10)));
  EXPECT_EQ(too_many.error, "too_many_steps");
  const net::Response still_alive = net::parse_response(client2.call(
      net::render_monitor_step_request(session2, {"request", "yes"}, 11)));
  EXPECT_TRUE(still_alive.ok) << still_alive.raw;
}

TEST(NetMonitor, PerConnectionSessionCapOverloadsDeterministically) {
  net::ServerOptions options;
  options.limits.max_sessions_per_connection = 1;
  TestServer ts(options);
  net::Client client = ts.connect_client();

  // Pipeline two opens in one burst: the cap counts the pending open, so
  // exactly one session is granted and the other answers the structured
  // overload with scope "connection_sessions".
  MonitorSpec spec;
  spec.system = serialize_system(figure2_system());
  spec.formula = "G F result";
  client.send_line(net::render_monitor_open_request(spec, 1));
  client.send_line(net::render_monitor_open_request(spec, 2));
  bool granted = false;
  bool overloaded = false;
  for (int i = 0; i < 2; ++i) {
    const net::Response r = net::parse_response(client.read_line());
    if (r.ok && r.has_session) granted = true;
    if (r.overloaded) {
      overloaded = true;
      const JsonValue root = parse_json(r.raw);
      ASSERT_NE(root.find("scope"), nullptr);
      EXPECT_EQ(root.find("scope")->as_string(), "connection_sessions");
    }
  }
  EXPECT_TRUE(granted);
  EXPECT_TRUE(overloaded);
}

void wait_for_open_sessions(Engine& engine, std::uint64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.stats().monitor.sessions_open != want &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(engine.stats().monitor.sessions_open, want);
}

TEST(NetMonitor, SessionsReclaimedOnAbortiveDisconnect) {
  TestServer ts;
  {
    net::Client client = ts.connect_client();
    (void)open_fig3_session(client);
    wait_for_open_sessions(ts.engine(), 1);
    // RST instead of FIN: SO_LINGER with zero timeout makes close() send a
    // reset — the connection error path, not the graceful one.
    struct linger hard = {1, 0};
    ::setsockopt(client.fd(), SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
  }
  wait_for_open_sessions(ts.engine(), 0);
}

TEST(NetMonitor, SessionsReclaimedByIdleTimeout) {
  net::ServerOptions options;
  options.session_idle_timeout_ms = 50;
  TestServer ts(options);
  net::Client client = ts.connect_client();
  const std::uint64_t session = open_fig3_session(client);
  wait_for_open_sessions(ts.engine(), 1);
  wait_for_open_sessions(ts.engine(), 0);  // swept without any traffic
  EXPECT_GE(ts.engine().stats().monitor.idle_reclaimed, 1u);
  // The next touch reports unknown_session instead of stepping a zombie.
  const net::Response step = net::parse_response(client.call(
      net::render_monitor_step_request(session, {"request"}, 2)));
  EXPECT_EQ(step.error, "unknown_session");
}

TEST(NetMonitor, DrainClosesOpenSessions) {
  // Engine outlives the server here so the post-drain table is observable.
  EngineOptions engine_options;
  engine_options.jobs = 2;
  Engine engine(engine_options);
  net::ServerOptions options;
  options.bind_address = "127.0.0.1";
  options.port = 0;
  net::Server server(engine, options);
  const std::uint16_t port = server.start();
  std::thread loop([&server] { server.run(); });
  {
    net::Client client;
    client.connect("127.0.0.1", port);
    (void)open_fig3_session(client);
    wait_for_open_sessions(engine, 1);
    server.request_stop();  // graceful drain with the session still open
    loop.join();
  }
  EXPECT_EQ(engine.stats().monitor.sessions_open, 0u);
}

TEST(NetMonitor, ConcurrentStreamsAgreeWithOneShotQueries) {
  // Four clients stream the dooming (fig3) and a live (fig2) trace while
  // also issuing the corresponding one-shot rl queries on the same
  // connection — streamed verdicts and query verdicts must tell the same
  // story. This is the suite's TSan workout: workers compile automata and
  // render verdicts while the loop steps sessions.
  EngineOptions engine_options;
  engine_options.jobs = 2;
  TestServer ts({}, engine_options);
  const std::string fig2 = serialize_system(figure2_system());
  const std::string fig3 = serialize_system(figure3_system());

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(4);
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      try {
        net::Client client = ts.connect_client();
        const auto expect = [&](bool ok, const char*) {
          if (!ok) failures.fetch_add(1);
        };
        for (int round = 0; round < 8; ++round) {
          // Streamed: fig3 dooms at index 3, fig2 stays live.
          MonitorSpec doomed_spec;
          doomed_spec.system = fig3;
          doomed_spec.formula = "G F result";
          const net::Response open3 = net::parse_response(client.call(
              net::render_monitor_open_request(doomed_spec, 1)));
          expect(open3.ok && open3.has_session, "open fig3");
          const net::Response doom = net::parse_response(client.call(
              net::render_monitor_step_request(
                  open3.session, {"request", "yes", "result", "lock"}, 2)));
          expect(doom.verdict == "doomed" && doom.has_doomed_index &&
                     doom.doomed_index == 3,
                 "doom at 3");
          expect(net::parse_response(
                     client.call(net::render_monitor_close_request(
                         open3.session, 3)))
                     .ok,
                 "close fig3");

          MonitorSpec live_spec;
          live_spec.system = fig2;
          live_spec.formula = "G F result";
          const net::Response open2 = net::parse_response(client.call(
              net::render_monitor_open_request(live_spec, 4)));
          expect(open2.ok && open2.has_session, "open fig2");
          const net::Response live = net::parse_response(client.call(
              net::render_monitor_step_request(
                  open2.session,
                  {"request", "yes", "result", "lock", "free", "request"},
                  5)));
          expect(live.ok && live.verdict == "live", "fig2 stays live");
          expect(net::parse_response(
                     client.call(net::render_monitor_close_request(
                         open2.session, 6)))
                     .ok,
                 "close fig2");

          // One-shot parity on the same connection.
          Query q;
          q.system = (t + round) % 2 == 0 ? fig3 : fig2;
          q.formula = "G F result";
          const net::Response verdict = net::parse_response(
              client.call(net::render_query_request(q, 7)));
          expect(verdict.ok && verdict.has_holds, "query answers");
          expect(verdict.holds == ((t + round) % 2 != 0),
                 "rl verdict parity");
        }
      } catch (const std::exception&) {
        failures.fetch_add(100);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  wait_for_open_sessions(ts.engine(), 0);
  EXPECT_EQ(ts.engine().stats().monitor.dooms, 4u * 8u);
}

}  // namespace
}  // namespace rlv
