// Tests for rlv::net — the serving layer: the strict JSON reader, the
// request/response protocol, server-side limit clamping, and the epoll
// Server end to end over real sockets (concurrent clients, verdict parity
// with a direct Engine, backpressure rejections, protocol-error handling,
// idle timeouts, mid-response disconnects, graceful drain). The sockets are
// loopback-only and every server runs on an ephemeral port, so the suite is
// parallel-safe.

#include <gtest/gtest.h>

#include <dirent.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rlv/engine/engine.hpp"
#include "rlv/engine/record.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/io/format.hpp"
#include "rlv/net/client.hpp"
#include "rlv/net/json.hpp"
#include "rlv/net/protocol.hpp"
#include "rlv/net/server.hpp"

namespace rlv {
namespace {

using net::JsonValue;
using net::parse_json;

// ---------------------------------------------------------------------------
// JSON reader.

TEST(NetJson, ParsesScalarsAndNesting) {
  const JsonValue root = parse_json(
      R"({"a":1,"b":-2.5e1,"c":"x","d":[true,false,null],"e":{"f":""}})");
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.find("a")->as_uint(), 1u);
  EXPECT_DOUBLE_EQ(root.find("b")->as_number(), -25.0);
  EXPECT_EQ(root.find("c")->as_string(), "x");
  ASSERT_EQ(root.find("d")->array.size(), 3u);
  EXPECT_TRUE(root.find("d")->array[0].as_bool());
  EXPECT_TRUE(root.find("d")->array[2].is_null());
  ASSERT_NE(root.find("e")->find("f"), nullptr);
  EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(NetJson, RejectsTrailingGarbageAndBareValuesAreFine) {
  EXPECT_THROW((void)parse_json("{} trailing"), net::JsonError);
  EXPECT_THROW((void)parse_json(""), net::JsonError);
  EXPECT_THROW((void)parse_json("{"), net::JsonError);
  EXPECT_THROW((void)parse_json("{\"a\":01}"), net::JsonError);
  EXPECT_THROW((void)parse_json("'single'"), net::JsonError);
  EXPECT_EQ(parse_json("  42 ").as_uint(), 42u);
}

TEST(NetJson, RejectsDuplicateKeys) {
  EXPECT_THROW((void)parse_json(R"({"id":1,"id":2})"), net::JsonError);
}

TEST(NetJson, BoundsRecursionDepth) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_THROW((void)parse_json(deep), net::JsonError);
}

TEST(NetJson, DecodesEscapesIncludingSurrogatePairs) {
  const JsonValue root =
      parse_json(R"({"s":"a\"b\\c\nAé😀"})");
  EXPECT_EQ(root.find("s")->as_string(),
            "a\"b\\c\nA\xC3\xA9\xF0\x9F\x98\x80");
  EXPECT_THROW((void)parse_json(R"(["\ud83d"])"), net::JsonError);
}

TEST(NetJson, AsUintRejectsNegativeAndFractional) {
  EXPECT_THROW((void)parse_json("-1").as_uint(), std::runtime_error);
  EXPECT_THROW((void)parse_json("1.5").as_uint(), std::runtime_error);
  EXPECT_THROW((void)parse_json("1e300").as_uint(), std::runtime_error);
  EXPECT_EQ(parse_json("0").as_uint(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol: request parsing, clamping, and render round trips.

TEST(NetProtocol, ParsesQueryWithDefaults) {
  const net::Request req = net::parse_request(
      R"({"id":7,"system":"S","formula":"G F result","check":"rs"})");
  EXPECT_EQ(req.op, net::RequestOp::kQuery);
  EXPECT_EQ(req.id, 7u);
  EXPECT_EQ(req.query.system, "S");
  EXPECT_EQ(req.query.kind, CheckKind::kRelativeSafety);
  EXPECT_EQ(req.query.timeout_ms, 0u);
  EXPECT_FALSE(req.query.certify);
}

TEST(NetProtocol, RejectsUnknownFieldsAndBadShapes) {
  EXPECT_THROW((void)net::parse_request(R"({"system":"S","formual":"x"})"),
               std::runtime_error);
  EXPECT_THROW((void)net::parse_request(R"({"op":"query"})"),
               std::runtime_error);  // missing system
  EXPECT_THROW((void)net::parse_request(R"({"system":"S"})"),
               std::runtime_error);  // neither formula nor automaton
  EXPECT_THROW((void)net::parse_request(
                   R"({"system":"S","formula":"x","property_automaton":"y"})"),
               std::runtime_error);  // both
  EXPECT_THROW((void)net::parse_request(R"({"op":"eval"})"),
               std::runtime_error);  // unknown op
  EXPECT_THROW((void)net::parse_request("[1,2]"), std::runtime_error);
  // Inclusion is sequential; a "threads" request field is unknown.
  EXPECT_THROW(
      (void)net::parse_request(R"({"system":"S","formula":"x","threads":2})"),
      std::runtime_error);
  // So is "algorithm": the served checks always run antichain inclusion.
  EXPECT_THROW((void)net::parse_request(
                   R"({"system":"S","formula":"x","algorithm":"subset"})"),
               std::runtime_error);
}

TEST(NetProtocol, RenderQueryRequestRoundTripsHostileStrings) {
  Query query;
  query.system = "states: 1\n# \"quotes\" and \\ backslash\t\x01";
  query.formula = "G(\"a\" -> F b)";
  query.kind = CheckKind::kSatisfaction;
  query.timeout_ms = 1234;
  query.max_states = 99;
  query.certify = true;

  const std::string line = net::render_query_request(query, 42, "lab\"el");
  const net::Request req = net::parse_request(line);
  EXPECT_EQ(req.id, 42u);
  EXPECT_EQ(req.label, "lab\"el");
  EXPECT_EQ(req.query.system, query.system);
  EXPECT_EQ(req.query.formula, query.formula);
  EXPECT_EQ(req.query.kind, query.kind);
  EXPECT_EQ(req.query.timeout_ms, query.timeout_ms);
  EXPECT_EQ(req.query.max_states, query.max_states);
  EXPECT_EQ(req.query.certify, query.certify);
}

TEST(NetProtocol, AppliesLimitsAsCapsAndDefaults) {
  net::ServerLimits limits;
  limits.max_timeout_ms = 1000;
  limits.max_max_states = 500;

  Query query;  // no overrides: caps become defaults
  net::apply_limits(query, limits);
  EXPECT_EQ(query.timeout_ms, 1000u);
  EXPECT_EQ(query.max_states, 500u);

  Query greedy;
  greedy.timeout_ms = 99999;
  greedy.max_states = 99999;
  net::apply_limits(greedy, limits);
  EXPECT_EQ(greedy.timeout_ms, 1000u);
  EXPECT_EQ(greedy.max_states, 500u);

  Query modest;
  modest.timeout_ms = 10;
  modest.max_states = 10;
  net::apply_limits(modest, limits);
  EXPECT_EQ(modest.timeout_ms, 10u);
  EXPECT_EQ(modest.max_states, 10u);
}

TEST(NetProtocol, ErrorAndOverloadRendersParseBack) {
  const JsonValue err = parse_json(net::render_error(7, "bad_request", "x\"y"));
  EXPECT_EQ(err.find("id")->as_uint(), 7u);
  EXPECT_FALSE(err.find("ok")->as_bool());
  EXPECT_EQ(err.find("error")->as_string(), "bad_request");
  EXPECT_EQ(err.find("detail")->as_string(), "x\"y");

  const JsonValue anon =
      parse_json(net::render_error(std::nullopt, "bad_request", ""));
  EXPECT_EQ(anon.find("id"), nullptr);

  const JsonValue over = parse_json(net::render_overloaded(3, "server"));
  EXPECT_TRUE(over.find("overloaded")->as_bool());
  EXPECT_EQ(over.find("scope")->as_string(), "server");
}

TEST(NetProtocol, StripCrNormalizesWindowsLineEndings) {
  // The shared helper both the rlvd batch reader and the wire protocol
  // run every line through before parsing.
  EXPECT_EQ(strip_cr("{\"op\":\"ping\"}\r"), "{\"op\":\"ping\"}");
  EXPECT_EQ(strip_cr("plain"), "plain");
  EXPECT_EQ(strip_cr("\r"), "");
  EXPECT_EQ(strip_cr(""), "");
  const net::Request req = net::parse_request(
      strip_cr("{\"system\":\"S\",\"formula\":\"G F a\"}\r"));
  EXPECT_EQ(req.query.system, "S");
}

// ---------------------------------------------------------------------------
// render_stats round trip.

TEST(NetProtocol, RenderStatsRoundTripsThroughJsonParser) {
  Engine engine;
  Query query{serialize_system(figure2_system()), "G F result",
              CheckKind::kRelativeLiveness};
  (void)engine.run({query, query});

  const std::string rendered = render_stats(engine.stats());
  const JsonValue root = parse_json(rendered);
  EXPECT_EQ(root.find("queries")->as_uint(), 2u);
  EXPECT_EQ(root.find("certificates_checked")->as_uint(), 0u);
  const JsonValue* caches = root.find("caches");
  ASSERT_NE(caches, nullptr);
  for (const char* name :
       {"systems", "behaviors", "prefixes", "translations", "properties",
        "verdicts", "total"}) {
    const JsonValue* cache = caches->find(name);
    ASSERT_NE(cache, nullptr) << name;
    ASSERT_NE(cache->find("hits"), nullptr) << name;
    ASSERT_NE(cache->find("coalesced"), nullptr) << name;
    ASSERT_NE(cache->find("misses"), nullptr) << name;
    ASSERT_NE(cache->find("evictions"), nullptr) << name;
  }
  // The identical second query must have hit the verdict cache.
  EXPECT_GE(caches->find("verdicts")->find("hits")->as_uint(), 1u);
  const JsonValue* stages = root.find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_NE(stages->find("parse"), nullptr);
  EXPECT_GE(stages->find("parse")->find("calls")->as_uint(), 2u);
}

// ---------------------------------------------------------------------------
// Engine::submit.

TEST(NetEngineSubmit, CallbacksDeliverSameVerdictsAsRun) {
  EngineOptions options;
  options.jobs = 2;
  Engine engine(options);

  std::vector<Query> queries;
  queries.push_back({serialize_system(figure2_system()), "G F result",
                     CheckKind::kRelativeLiveness});
  queries.push_back({serialize_system(figure3_system()), "G F result",
                     CheckKind::kRelativeLiveness});
  queries.push_back({serialize_system(figure2_system()), "G F result",
                     CheckKind::kSatisfaction});

  std::vector<Verdict> got(queries.size());
  std::atomic<std::size_t> done{0};
  for (std::size_t i = 0; i < queries.size(); ++i) {
    engine.submit(queries[i], [&, i](Verdict verdict) {
      got[i] = std::move(verdict);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  while (done.load(std::memory_order_acquire) < queries.size()) {
    std::this_thread::yield();
  }

  Engine reference;
  const std::vector<Verdict> expected = reference.run(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i].holds, expected[i].holds) << "query " << i;
    EXPECT_EQ(got[i].error, expected[i].error) << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Server integration over real sockets.

/// An Engine + Server on an ephemeral loopback port, run() on its own
/// thread; tears down via the same graceful drain the daemon uses. The
/// engine has two jobs: two compute slots on three serving threads.
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
  [[nodiscard]] net::Server& server() { return *server_; }

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

/// The dense all-initial property automaton of tools/samples/hard_prop.rlv,
/// generated over the Figure 2 alphabet: rank-based complementation of this
/// (any rs/sat check) reliably outlives small budgets.
std::string dense_property_text() {
  const char* letters[] = {"lock", "free",   "request", "yes",
                           "no",   "result", "reject"};
  std::string text =
      "alphabet: lock free request yes no result reject\n"
      "states: 6\ninitial: 0 1 2 3 4 5\naccepting: 0\n";
  for (int from = 0; from < 6; ++from) {
    for (const char* letter : letters) {
      for (int to = 0; to < 6; ++to) {
        text += std::to_string(from) + " " + letter + " " +
                std::to_string(to) + "\n";
      }
    }
  }
  return text;
}

TEST(NetServer, PingStatsAndCrlfLines) {
  TestServer ts;
  net::Client client = ts.connect_client();

  const JsonValue pong = parse_json(client.call(R"({"op":"ping","id":5})"));
  EXPECT_EQ(pong.find("id")->as_uint(), 5u);
  EXPECT_TRUE(pong.find("ok")->as_bool());
  EXPECT_TRUE(pong.find("pong")->as_bool());

  // A Windows client: the protocol strips the \r, same as the batch reader.
  const JsonValue pong2 =
      parse_json(client.call("{\"op\":\"ping\",\"id\":6}\r"));
  EXPECT_EQ(pong2.find("id")->as_uint(), 6u);
  EXPECT_TRUE(pong2.find("ok")->as_bool());

  const JsonValue stats = parse_json(client.call(R"({"op":"stats","id":7})"));
  EXPECT_TRUE(stats.find("ok")->as_bool());
  ASSERT_NE(stats.find("stats"), nullptr);
  EXPECT_EQ(stats.find("stats")->find("queries")->as_uint(), 0u);
  const JsonValue* server = stats.find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_GE(server->find("connections_accepted")->as_uint(), 1u);
  EXPECT_EQ(server->find("queries")->as_uint(), 0u);
  EXPECT_FALSE(server->find("draining")->as_bool());
}

TEST(NetServer, FourConcurrentClientsMatchDirectEngine) {
  TestServer ts;

  std::vector<Query> queries;
  const std::string fig2 = serialize_system(figure2_system());
  const std::string fig3 = serialize_system(figure3_system());
  for (const std::string& system : {fig2, fig3}) {
    for (const CheckKind kind :
         {CheckKind::kRelativeLiveness, CheckKind::kRelativeSafety,
          CheckKind::kSatisfaction}) {
      queries.push_back({system, "G F result", kind});
      queries.push_back({system, "G(request -> F(result || reject))", kind});
    }
  }
  Engine reference;
  const std::vector<Verdict> expected = reference.run(queries);

  constexpr std::size_t kClients = 4;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        net::Client client;
        client.connect("127.0.0.1", ts.port());
        // Walk the workload from a per-client offset so the cache sees
        // concurrent misses for *different* keys, not a lockstep scan.
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t k = (i + c * 3) % queries.size();
          const std::uint64_t id = c * 1000 + k;
          const net::Response response = net::parse_response(
              client.call(net::render_query_request(queries[k], id)));
          if (!response.ok || !response.has_holds ||
              response.id != id ||
              response.holds != expected[k].holds) {
            failures[c] = "query " + std::to_string(k) + " diverged: " +
                          response.raw;
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }

  // 4 clients x 12 queries over 12 distinct verdict keys: the shared cache
  // must have absorbed the repeats.
  net::Client client = ts.connect_client();
  const JsonValue stats = parse_json(client.call(R"({"op":"stats"})"));
  const JsonValue* verdicts =
      stats.find("stats")->find("caches")->find("verdicts");
  ASSERT_NE(verdicts, nullptr);
  // Coalesced lookups joined a computation that was still in flight; they
  // are not misses (no recompute) but not resident hits either.
  EXPECT_EQ(verdicts->find("hits")->as_uint() +
                verdicts->find("coalesced")->as_uint() +
                verdicts->find("misses")->as_uint(),
            kClients * queries.size());
  EXPECT_GE(verdicts->find("hits")->as_uint() +
                verdicts->find("coalesced")->as_uint(),
            2u * queries.size());
  EXPECT_EQ(stats.find("server")->find("overload_rejects")->as_uint(), 0u);
}

TEST(NetServer, OverloadRejectsPipelinedRequestsServerScope) {
  net::ServerOptions options;
  options.max_inflight = 1;
  TestServer ts(options);
  net::Client client = ts.connect_client();

  Query query{serialize_system(figure2_system()), "G F result",
              CheckKind::kRelativeLiveness};
  // One send(2) carrying two requests: both lines are parsed in the same
  // event-loop pass, before any completion can drain, so the second always
  // sees the first in flight — deterministic overload.
  client.send_line(net::render_query_request(query, 1) + "\n" +
                   net::render_query_request(query, 2));
  const net::Response first = net::parse_response(client.read_line());
  const net::Response second = net::parse_response(client.read_line());

  EXPECT_TRUE(first.overloaded);
  EXPECT_EQ(first.id, 2u);
  EXPECT_EQ(parse_json(first.raw).find("scope")->as_string(), "server");
  EXPECT_TRUE(second.ok);
  EXPECT_EQ(second.id, 1u);
  EXPECT_TRUE(second.has_holds);
}

TEST(NetServer, OverloadRejectsPipelinedRequestsConnectionScope) {
  net::ServerOptions options;
  options.max_inflight_per_connection = 1;
  TestServer ts(options);
  net::Client client = ts.connect_client();

  Query query{serialize_system(figure2_system()), "G F result",
              CheckKind::kRelativeLiveness};
  client.send_line(net::render_query_request(query, 1) + "\n" +
                   net::render_query_request(query, 2));
  const net::Response reject = net::parse_response(client.read_line());
  EXPECT_TRUE(reject.overloaded);
  EXPECT_EQ(parse_json(reject.raw).find("scope")->as_string(), "connection");
  EXPECT_TRUE(net::parse_response(client.read_line()).ok);
}

TEST(NetServer, BadJsonGetsErrorThenClose) {
  TestServer ts;
  net::Client client = ts.connect_client();
  const net::Response response =
      net::parse_response(client.call("this is not json"));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, "bad_request");
  // The stream is desynced, so the server answers once and closes.
  EXPECT_THROW((void)client.read_line(), std::runtime_error);
}

TEST(NetServer, UnknownFieldGetsBadRequest) {
  TestServer ts;
  net::Client client = ts.connect_client();
  const net::Response response = net::parse_response(
      client.call(R"({"system":"S","formual":"G F a"})"));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, "bad_request");
  EXPECT_NE(parse_json(response.raw).find("detail")->as_string().find(
                "formual"),
            std::string::npos);
}

TEST(NetServer, OversizedRequestLineRejected) {
  net::ServerOptions options;
  options.max_request_bytes = 1024;
  TestServer ts(options);
  net::Client client = ts.connect_client();
  client.send_line(std::string(4096, 'a'));  // one huge unterminated-ish line
  const net::Response response = net::parse_response(client.read_line());
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, "bad_request");
  EXPECT_THROW((void)client.read_line(), std::runtime_error);
}

TEST(NetServer, ServerCapsClampRequestedBudget) {
  net::ServerOptions options;
  options.limits.max_timeout_ms = 150;
  options.limits.max_max_states = 20000;
  TestServer ts(options);
  net::Client client = ts.connect_client();

  Query hard;
  hard.system = serialize_system(figure2_system());
  hard.property_automaton = dense_property_text();
  hard.kind = CheckKind::kRelativeSafety;
  hard.timeout_ms = 600000;  // the client asks for ten minutes...
  hard.max_states = 100000000;
  const net::Response response = net::parse_response(
      client.call(net::render_query_request(hard, 9, "dense")));
  // ...and the server's caps win: the rank-based complementation trips the
  // clamped budget instead of running for minutes.
  EXPECT_TRUE(response.resource_exhausted) << response.raw;
}

TEST(NetServer, SurvivesMidResponseDisconnect) {
  TestServer ts;
  Query query{serialize_system(figure2_system()), "G F result",
              CheckKind::kRelativeLiveness};
  // Fire queries and slam the connection shut before reading the response;
  // the completion arrives for a dead connection and any write hits
  // EPIPE/ECONNRESET. MSG_NOSIGNAL + SIG_IGN must keep the daemon alive.
  for (int round = 0; round < 3; ++round) {
    net::Client client = ts.connect_client();
    client.send_line(net::render_query_request(query, 1));
    // RST (not FIN) makes the pending response write fail hard.
    struct linger hard_close{1, 0};
    ::setsockopt(client.fd(), SOL_SOCKET, SO_LINGER, &hard_close,
                 sizeof hard_close);
    client.close();
  }
  net::Client probe = ts.connect_client();
  const JsonValue pong = parse_json(probe.call(R"({"op":"ping","id":1})"));
  EXPECT_TRUE(pong.find("ok")->as_bool());
}

TEST(NetServer, DeeplyNestedFormulaIsAParseErrorNotACrash) {
  TestServer ts;
  const std::string fig2 = serialize_system(figure2_system());
  {
    net::Client client = ts.connect_client();
    // Resident system: the reading thread parses the next formula while
    // looking for a resident verdict.
    ASSERT_TRUE(net::parse_response(
                    client.call(net::render_query_request(
                        {fig2, "G F result", CheckKind::kRelativeLiveness}, 1)))
                    .ok);
    // ~400 KB, under the 1 MiB line cap: one recursion level per '!'.
    const Query deep{fig2, std::string(400000, '!') + "result",
                     CheckKind::kRelativeLiveness};
    const net::Response response =
        net::parse_response(client.call(net::render_query_request(deep, 2)));
    EXPECT_EQ(response.id, 2u);
    EXPECT_FALSE(response.ok);
    EXPECT_NE(response.error.find("nesting too deep"), std::string::npos)
        << response.error;
  }
  net::Client probe = ts.connect_client();
  const JsonValue pong = parse_json(probe.call(R"({"op":"ping","id":3})"));
  EXPECT_TRUE(pong.find("ok")->as_bool());
}

TEST(NetServer, ResidentVerdictAnsweredWhileWorkersAreBusy) {
  TestServer ts;  // two compute slots
  const std::string fig2 = serialize_system(figure2_system());
  const Query warm{fig2, "G F result", CheckKind::kRelativeLiveness};
  net::Client fast = ts.connect_client();
  ASSERT_TRUE(
      net::parse_response(fast.call(net::render_query_request(warm, 1))).ok);

  // Two slow queries (rank-based complementation of the dense property)
  // occupy both compute slots; the state cap bounds their memory, the
  // generous deadline never trips first.
  std::vector<net::Client> slow;
  for (const CheckKind kind :
       {CheckKind::kRelativeSafety, CheckKind::kSatisfaction}) {
    Query hard;
    hard.system = fig2;
    hard.property_automaton = dense_property_text();
    hard.kind = kind;
    hard.timeout_ms = 20000;
    hard.max_states = 150000;
    slow.push_back(ts.connect_client());
    slow.back().send_line(net::render_query_request(hard, 10, "dense"));
  }
  while (ts.server().counters().queries < 3) std::this_thread::yield();

  // The warm query's verdict is resident: the free thread answers it
  // without waiting for a slot, so no slow reply can have arrived first.
  const net::Response hit =
      net::parse_response(fast.call(net::render_query_request(warm, 2)));
  EXPECT_TRUE(hit.ok);
  EXPECT_EQ(hit.id, 2u);
  for (net::Client& client : slow) {
    pollfd pfd{client.fd(), POLLIN, 0};
    EXPECT_EQ(::poll(&pfd, 1, 0), 0) << "a slow reply arrived first";
  }
  for (net::Client& client : slow) {
    EXPECT_TRUE(net::parse_response(client.read_line()).resource_exhausted);
  }
}

TEST(NetServer, IdleConnectionsAreClosed) {
  net::ServerOptions options;
  options.idle_timeout_ms = 100;
  TestServer ts(options);
  net::Client client = ts.connect_client();
  // No request: the server must EOF us, not hold the socket forever.
  EXPECT_THROW((void)client.read_line(), std::runtime_error);
}

TEST(NetServer, GracefulDrainAnswersInFlightThenCloses) {
  TestServer ts;
  net::Client client = ts.connect_client();
  Query query{serialize_system(token_ring(5)), "G F pass_0",
              CheckKind::kRelativeLiveness};
  client.send_line(net::render_query_request(query, 11));
  // Wait for the submission to reach the engine, then start the drain with
  // the query genuinely in flight.
  while (ts.server().counters().queries < 1) std::this_thread::yield();
  ts.server().request_stop();
  const net::Response response = net::parse_response(client.read_line());
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.id, 11u);
  EXPECT_TRUE(response.has_holds);
  // After the drain the server closes the connection and new connects fail.
  EXPECT_THROW((void)client.read_line(), std::runtime_error);
  net::Client late;
  EXPECT_THROW(late.connect("127.0.0.1", ts.port()), std::runtime_error);
}

TEST(NetServer, UnterminatedStreamIsRejectedAtTheRequestCap) {
  net::ServerOptions options;
  options.max_request_bytes = 4096;
  TestServer ts(options);
  net::Client client = ts.connect_client();
  // 1 MiB without a newline, from another thread: the server stops
  // reading, so this send may block until the server closes the socket.
  std::thread sender([fd = client.fd()] {
    const std::string junk(1 << 20, 'a');
    std::size_t sent = 0;
    while (sent < junk.size()) {
      const ssize_t n =
          ::send(fd, junk.data() + sent, junk.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  });
  const net::Response response = net::parse_response(client.read_line());
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, "bad_request");
  EXPECT_NE(response.raw.find("request line too large"), std::string::npos);
  EXPECT_THROW((void)client.read_line(), std::runtime_error);
  sender.join();
  // One read past the cap, not the whole stream.
  EXPECT_LT(ts.server().counters().bytes_read, 4096u + 65536u);
}

TEST(NetServer, ClosedLoopMissesAreComputedWithoutQueueing) {
  TestServer ts;
  net::Client client = ts.connect_client();
  const std::string fig2 = serialize_system(figure2_system());
  for (std::uint64_t k = 0; k < 50; ++k) {
    // Fifty distinct formulas: F X^k result. Each one is a miss.
    std::string formula = "F ";
    for (std::uint64_t i = 0; i < k; ++i) formula += "X ";
    formula += "result";
    const net::Response response = net::parse_response(client.call(
        net::render_query_request({fig2, formula, CheckKind::kRelativeLiveness},
                                  k)));
    ASSERT_TRUE(response.ok && response.has_holds) << response.raw;
  }
  const JsonValue stats = parse_json(client.call(R"({"op":"stats"})"));
  EXPECT_EQ(stats.find("stats")->find("caches")->find("verdicts")->find(
                "misses")->as_uint(),
            50u);
  // The reading thread computed every miss itself.
  EXPECT_EQ(stats.find("server")->find("queued_total")->as_uint(), 0u);
}

/// A query whose rank-based complementation outlives small budgets; the
/// state cap bounds its memory and the generous deadline never trips first.
Query slow_query(CheckKind kind) {
  Query hard;
  hard.system = serialize_system(figure2_system());
  hard.property_automaton = dense_property_text();
  hard.kind = kind;
  hard.timeout_ms = 20000;
  hard.max_states = 150000;
  return hard;
}

/// Polls `stats` over `client` until `done` accepts its "server" object;
/// returns that object's last reading.
JsonValue poll_server_stats(net::Client& client,
                            const std::function<bool(const JsonValue&)>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    JsonValue stats = parse_json(client.call(R"({"op":"stats"})"));
    JsonValue server = *stats.find("server");
    if (done(server) || std::chrono::steady_clock::now() > deadline) {
      return server;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(NetServer, PipelinedMissesFillEverySlotThenQueue) {
  TestServer ts;  // two compute slots
  net::Client pipelined = ts.connect_client();
  net::Client observer = ts.connect_client();
  // Two slow misses in one send: the reading thread computes the first
  // and wakes a second thread for the other.
  const Query first = slow_query(CheckKind::kRelativeSafety);
  const Query second = slow_query(CheckKind::kSatisfaction);
  pipelined.send_line(net::render_query_request(first, 1, "dense") + "\n" +
                      net::render_query_request(second, 2, "dense"));
  const JsonValue busy = poll_server_stats(observer, [](const JsonValue& s) {
    return s.find("computing")->as_uint() == 2;
  });
  EXPECT_EQ(busy.find("computing")->as_uint(), 2u);

  // Both slots are taken: a third miss waits in the queue.
  net::Client third = ts.connect_client();
  third.send_line(net::render_query_request(
      slow_query(CheckKind::kFairStrong), 3, "dense"));
  const JsonValue waiting = poll_server_stats(observer, [](const JsonValue& s) {
    return s.find("queued")->as_uint() == 1;
  });
  EXPECT_EQ(waiting.find("queued")->as_uint(), 1u);
  EXPECT_EQ(waiting.find("computing")->as_uint(), 2u);
  EXPECT_GE(waiting.find("queued_total")->as_uint(), 1u);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    const net::Response response = net::parse_response(pipelined.read_line());
    EXPECT_TRUE(response.resource_exhausted) << response.raw;
    ids.push_back(response.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2}));
  const net::Response queued = net::parse_response(third.read_line());
  EXPECT_EQ(queued.id, 3u);
  EXPECT_TRUE(queued.resource_exhausted) << queued.raw;
}

TEST(NetServer, ReplyNeverReachesAReusedFd) {
  TestServer ts;
  {
    // A slow miss, then an RST: the reply is computed for a dead client.
    net::Client gone = ts.connect_client();
    gone.send_line(net::render_query_request(
        slow_query(CheckKind::kRelativeSafety), 7, "dense"));
    while (ts.server().counters().queries < 1) std::this_thread::yield();
    struct linger hard_close{1, 0};
    ::setsockopt(gone.fd(), SOL_SOCKET, SO_LINGER, &hard_close,
                 sizeof hard_close);
    gone.close();
  }
  // Once the server has closed that socket, the next accept reuses its fd.
  while (ts.server().counters().connections_open > 0) {
    std::this_thread::yield();
  }
  net::Client next = ts.connect_client();
  EXPECT_EQ(parse_json(next.call(R"({"op":"ping","id":100})"))
                .find("id")
                ->as_uint(),
            100u);
  while (ts.server().counters().inflight > 0) std::this_thread::yield();
  // The slow reply is gone: the next line on this socket answers this ping.
  EXPECT_EQ(parse_json(next.call(R"({"op":"ping","id":101})"))
                .find("id")
                ->as_uint(),
            101u);
}

TEST(NetServer, MonitorSessionsReclaimedOnRst) {
  TestServer ts;
  MonitorSpec spec;
  spec.system = serialize_system(figure2_system());
  spec.formula = "G F result";
  constexpr std::size_t kClients = 4;
  std::vector<net::Client> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    net::Client client = ts.connect_client();
    const net::Response opened = net::parse_response(
        client.call(net::render_monitor_open_request(spec, c + 1)));
    ASSERT_TRUE(opened.ok) << opened.raw;
    ASSERT_TRUE(opened.has_session);
    clients.push_back(std::move(client));
  }
  EXPECT_EQ(ts.engine().stats().monitor.sessions_open, kClients);

  // RST (not FIN) every connection: whichever thread sees the dead socket
  // must reclaim the slab slot of the session its connection owned.
  for (net::Client& client : clients) {
    struct linger hard_close{1, 0};
    ::setsockopt(client.fd(), SOL_SOCKET, SO_LINGER, &hard_close,
                 sizeof hard_close);
    client.close();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.engine().stats().monitor.sessions_open > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ts.engine().stats().monitor.sessions_open, 0u);
  EXPECT_EQ(ts.engine().stats().monitor.sessions_opened, kClients);
}

TEST(NetServer, GracefulDrainReclaimsSessions) {
  TestServer ts;
  MonitorSpec spec;
  spec.system = serialize_system(figure3_system());
  spec.formula = "G F result";
  std::vector<net::Client> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    net::Client client = ts.connect_client();
    const net::Response opened = net::parse_response(
        client.call(net::render_monitor_open_request(spec, c + 1)));
    ASSERT_TRUE(opened.ok) << opened.raw;
    clients.push_back(std::move(client));
  }
  ASSERT_EQ(ts.engine().stats().monitor.sessions_open, 4u);

  ts.server().request_stop();
  // The drain closes every connection; each close reclaims the sessions
  // that connection owned before run() returns.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.engine().stats().monitor.sessions_open > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ts.engine().stats().monitor.sessions_open, 0u);
  for (net::Client& client : clients) {
    EXPECT_THROW((void)client.read_line(), std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// fd exhaustion: accept(2) returning EMFILE must degrade, not crash.

/// Open fds of this process, counted via /proc/self/fd. Overcounts by at
/// most one (the directory fd itself) — harmless for sizing a headroom.
int count_open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int entries = 0;
  while (::readdir(dir) != nullptr) ++entries;
  ::closedir(dir);
  return entries - 2;  // "." and ".."
}

net::Server* g_fd_test_server = nullptr;
void fd_test_sigterm(int) {
  if (g_fd_test_server != nullptr) g_fd_test_server->request_stop();
}

/// Child-process body for the fd-exhaustion test: serve on an ephemeral
/// port, then drop RLIMIT_NOFILE to current usage plus a small headroom so
/// a handful of accepted connections exhausts the process. Communicates
/// the bound port over `port_pipe_fd` and exits via _exit only (no gtest,
/// no atexit handlers in the fork child).
[[noreturn]] void run_fd_limited_server(int port_pipe_fd) {
  try {
    EngineOptions engine_options;
    engine_options.jobs = 2;
    Engine engine(engine_options);
    net::ServerOptions options;
    options.bind_address = "127.0.0.1";
    options.port = 0;
    net::Server server(engine, options);
    const std::uint16_t port = server.start();
    g_fd_test_server = &server;
    std::signal(SIGTERM, fd_test_sigterm);

    const int used = count_open_fds();
    if (used < 0) ::_exit(2);
    struct rlimit lim{};
    if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) ::_exit(3);
    struct rlimit low{static_cast<rlim_t>(used) + 6, lim.rlim_max};
    if (::setrlimit(RLIMIT_NOFILE, &low) != 0) ::_exit(4);

    if (::write(port_pipe_fd, &port, sizeof port) !=
        static_cast<ssize_t>(sizeof port)) {
      ::_exit(5);
    }
    ::close(port_pipe_fd);

    server.run();  // until SIGTERM -> request_stop -> graceful drain
    ::_exit(0);
  } catch (...) {
    ::_exit(6);
  }
}

TEST(NetServerFdExhaustion, SurvivesEmfileAndRecovers) {
  // The server runs in a fork child so lowering RLIMIT_NOFILE cannot
  // starve the test runner itself. Fork happens before the child creates
  // any engine/server threads; by this point in the suite every prior
  // test has joined its threads, so the parent is single-threaded too.
  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(port_pipe[0]);
    run_fd_limited_server(port_pipe[1]);  // never returns
  }
  ::close(port_pipe[1]);
  std::uint16_t port = 0;
  ASSERT_EQ(::read(port_pipe[0], &port, sizeof port),
            static_cast<ssize_t>(sizeof port));
  ::close(port_pipe[0]);

  // An established connection, opened while the child still had free fds.
  net::Client survivor;
  survivor.connect("127.0.0.1", port);
  EXPECT_TRUE(parse_json(survivor.call(R"({"op":"ping","id":1})"))
                  .find("ok")
                  ->as_bool());

  // Flood connects until the server reports accept soft errors. connect(2)
  // succeeds from our side even when the server cannot accept (the kernel
  // parks the connection in the listen backlog), so the counter — read
  // over the established connection — is the observable.
  std::vector<net::Client> flood;
  std::uint64_t soft_errors = 0;
  for (int i = 0; i < 64 && soft_errors == 0; ++i) {
    net::Client c;
    c.connect("127.0.0.1", port);
    flood.push_back(std::move(c));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const JsonValue stats = parse_json(survivor.call(R"({"op":"stats"})"));
    soft_errors =
        stats.find("server")->find("accept_soft_errors")->as_uint();
  }
  EXPECT_GT(soft_errors, 0u);

  // The established connection was served throughout (every stats call
  // above went over it); once more for good measure.
  EXPECT_TRUE(parse_json(survivor.call(R"({"op":"ping","id":2})"))
                  .find("ok")
                  ->as_bool());

  // Release the flood: closing the accepted connections frees fds in the
  // child, which unpauses the listener. The server must then accept and
  // serve brand-new connections — full recovery, no restart.
  flood.clear();
  net::Client fresh;
  fresh.connect("127.0.0.1", port);
  struct timeval recv_timeout{10, 0};  // fail, don't hang, if broken
  ::setsockopt(fresh.fd(), SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
               sizeof recv_timeout);
  const JsonValue pong = parse_json(fresh.call(R"({"op":"ping","id":3})"));
  EXPECT_TRUE(pong.find("ok")->as_bool());

  // Graceful shutdown still works after the episode.
  ASSERT_EQ(::kill(child, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child terminated abnormally";
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child exit status";
}

}  // namespace
}  // namespace rlv
