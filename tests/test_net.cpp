// Tests for rlv::net — the serving layer: the strict JSON reader, the JSON
// writer, the wire shape (keys and value types) of every renderer, the
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
#include <cmath>
#include <csignal>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rlv/engine/engine.hpp"
#include "rlv/engine/record.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/io/format.hpp"
#include "rlv/io/json_writer.hpp"
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

TEST(NetJson, AsUintRejectsIntegersADoubleCannotHoldExactly) {
  // 2^53 - 1 is the largest integer whose neighbours are all doubles too;
  // from 2^53 on, a parsed number may already be a rounded one.
  EXPECT_EQ(parse_json("9007199254740991").as_uint(), 9007199254740991u);
  EXPECT_THROW((void)parse_json("9007199254740992").as_uint(),
               std::runtime_error);
  EXPECT_THROW((void)parse_json("9007199254740993").as_uint(),
               std::runtime_error);
  EXPECT_THROW((void)parse_json("18446744073709551615").as_uint(),
               std::runtime_error);
  EXPECT_THROW(
      (void)net::parse_request(R"({"op":"ping","id":9007199254740993})"),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// JSON writer.

/// Every byte a writer must escape or pass through untouched: quote,
/// backslash, NUL and the control bytes 0x01-0x1f, DEL and UTF-8 ("é",
/// "→").
std::string hostile_text() {
  std::string s = "q\"b\\s/";
  for (char c = 0x00; c < 0x20; ++c) s += c;
  s += '\x7f';
  s += "\xc3\xa9\xe2\x86\x92";
  return s;
}

std::string written(const std::function<void(JsonWriter&)>& write) {
  std::string out;
  JsonWriter w(out);
  write(w);
  return out;
}

TEST(NetJsonWriter, PlacesCommasByNesting) {
  EXPECT_EQ(written([](JsonWriter& w) { w.begin_object().end_object(); }),
            "{}");
  EXPECT_EQ(written([](JsonWriter& w) {
              w.begin_object()
                  .key("a")
                  .begin_array()
                  .end_array()
                  .key("b")
                  .begin_object()
                  .key("c")
                  .begin_array()
                  .value(1u)
                  .begin_object()
                  .field("d", true)
                  .end_object()
                  .begin_array()
                  .end_array()
                  .value("x")
                  .end_array()
                  .field("e", false)
                  .end_object()
                  .key("f")
                  .raw("null")
                  .end_object();
            }),
            R"({"a":[],"b":{"c":[1,{"d":true},[],"x"],"e":false},"f":null})");
}

TEST(NetJsonWriter, AppendsToTheCallersBuffer) {
  std::string line = "{\"ok\":true}\n";
  JsonWriter(line).begin_array().value(2u).end_array();
  EXPECT_EQ(line, "{\"ok\":true}\n[2]");
}

TEST(NetJsonWriter, WritesNumbersOneWay) {
  EXPECT_EQ(written([](JsonWriter& w) {
              w.value(std::numeric_limits<std::uint64_t>::max());
            }),
            "18446744073709551615");
  // Doubles print as an ostream prints them by default: %g, 6 digits.
  for (const double d : {0.0, 1.0, 0.25, 1e-7, 0.000123456789, 3.14159265,
                         123456789.0, 1e21, -2.5, 42.125}) {
    std::ostringstream expected;
    expected << d;
    EXPECT_EQ(written([d](JsonWriter& w) { w.value(d); }), expected.str());
  }
  EXPECT_EQ(written([](JsonWriter& w) {
              w.begin_array()
                  .value(std::numeric_limits<double>::infinity())
                  .value(std::nan(""))
                  .end_array();
            }),
            "[null,null]");
}

TEST(NetJsonWriter, HostileStringsRoundTrip) {
  const std::string hostile = hostile_text();
  const std::string line = written([&](JsonWriter& w) {
    w.begin_object().field(hostile, hostile).end_object();
  });
  const JsonValue root = parse_json(line);
  ASSERT_EQ(root.object.size(), 1u);
  EXPECT_EQ(root.object[0].first, hostile);
  EXPECT_EQ(root.object[0].second.as_string(), hostile);
  EXPECT_EQ(line, "{\"" + json_escape(hostile) + "\":\"" +
                      json_escape(hostile) + "\"}");
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

// ---------------------------------------------------------------------------
// Wire shapes: the key sequence and value types of every renderer's output,
// pinned for representative inputs. A shape writes objects as
// {key:shape,...}, arrays as [shape,...] and scalars as s (string),
// n (number), b (bool) or null.

std::string shape(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return "b";
    case JsonValue::Kind::kNumber:
      return "n";
    case JsonValue::Kind::kString:
      return "s";
    case JsonValue::Kind::kArray: {
      std::string out = "[";
      for (const JsonValue& e : v.array) {
        if (out.size() > 1) out += ',';
        out += shape(e);
      }
      return out + "]";
    }
    case JsonValue::Kind::kObject: {
      std::string out = "{";
      for (const auto& [key, member] : v.object) {
        if (out.size() > 1) out += ',';
        out += key + ":" + shape(member);
      }
      return out + "}";
    }
  }
  return "?";
}

std::string shape_of(const std::string& line) {
  return shape(parse_json(line));
}

constexpr const char* kCache =
    "cache:{hits:n,coalesced:n,misses:n,evictions:n}";

TEST(NetWireShape, QueryRecordsKeepKeysAndTypes) {
  const std::string hostile = hostile_text();
  auto sigma = std::make_shared<Alphabet>();
  sigma->intern("req");
  sigma->intern(hostile);
  Query query;
  query.formula = hostile;
  query.kind = CheckKind::kRelativeLiveness;
  CacheCounters cache;
  cache.hits = 3;

  Verdict base;
  base.alphabet = sigma;
  base.millis = 0.25;
  base.profile[Stage::kParse].calls = 1;
  base.profile[Stage::kParse].nanos = 1500;
  base.profile[Stage::kInclusion].calls = 2;
  base.profile[Stage::kInclusion].nanos = 42000;
  const std::string stages = "stages:{parse:n,inclusion:n}";

  Verdict holds = base;
  holds.holds = true;
  std::string line = render_query_record(1, query, holds, hostile, "", cache);
  EXPECT_EQ(shape_of(line), "{id:n,system:s,check:s,formula:s,ok:b,holds:b,"
                            "ms:n," + stages + "," + kCache + "}");
  const JsonValue root = parse_json(line);
  EXPECT_EQ(root.find("system")->as_string(), hostile);
  EXPECT_EQ(root.find("formula")->as_string(), hostile);

  Verdict doomed = base;
  doomed.violating_prefix = Word{0, 1};
  line = render_query_record(2, query, doomed, "sys", hostile, cache);
  EXPECT_EQ(shape_of(line),
            "{id:n,system:s,check:s,property:s,ok:b,holds:b,witness:s,"
            "witness_prefix:[s,s],ms:n," + stages + "," + kCache + "}");
  EXPECT_EQ(parse_json(line).find("property")->as_string(), hostile);
  EXPECT_EQ(parse_json(line).find("witness_prefix")->array[1].as_string(),
            hostile);

  Verdict lasso = base;
  lasso.counterexample = Lasso{Word{1}, Word{0, 1}};
  line = render_query_record(3, query, lasso, "sys", "", cache);
  EXPECT_EQ(shape_of(line),
            "{id:n,system:s,check:s,formula:s,ok:b,holds:b,witness:s,"
            "witness_prefix:[s],witness_period:[s,s],ms:n," + stages + "," +
                kCache + "}");
  EXPECT_EQ(parse_json(line).find("witness")->as_string(),
            hostile + " (req." + hostile + ")^w");

  Verdict exhausted;
  exhausted.resource_exhausted = true;
  exhausted.exhausted_stage = "complement";
  line = render_query_record(4, query, exhausted, "sys", "", cache);
  EXPECT_EQ(shape_of(line), "{id:n,system:s,check:s,formula:s,ok:b,"
                            "resource_exhausted:b,stage:s,ms:n,stages:{}," +
                                std::string(kCache) + "}");

  Verdict failed;
  failed.error = hostile;
  line = render_query_record(5, query, failed, "sys", "", cache);
  EXPECT_EQ(shape_of(line), "{id:n,system:s,check:s,formula:s,ok:b,error:s,"
                            "ms:n,stages:{}," + std::string(kCache) + "}");
  EXPECT_EQ(parse_json(line).find("error")->as_string(), hostile);
}

TEST(NetWireShape, MonitorRepliesKeepKeysAndTypes) {
  const std::string hostile = hostile_text();
  MonitorOpenResult open;
  open.session = 9;
  open.millis = 1.5;
  EXPECT_EQ(shape_of(net::render_monitor_open(1, open)),
            "{id:n,ok:b,session:n,verdict:s,certified:b,ms:n}");
  MonitorOpenResult full;
  full.table_full = true;
  EXPECT_EQ(shape_of(net::render_monitor_open(1, full)),
            "{id:n,ok:b,error:s,overloaded:b,scope:s}");
  MonitorOpenResult exhausted;
  exhausted.resource_exhausted = true;
  exhausted.exhausted_stage = hostile;
  EXPECT_EQ(shape_of(net::render_monitor_open(1, exhausted)),
            "{id:n,ok:b,resource_exhausted:b,stage:s}");
  EXPECT_EQ(parse_json(net::render_monitor_open(1, exhausted))
                .find("stage")
                ->as_string(),
            hostile);
  MonitorOpenResult failed;
  failed.error = hostile;
  EXPECT_EQ(shape_of(net::render_monitor_open(1, failed)),
            "{id:n,ok:b,error:s}");

  MonitorStepResult live;
  live.events = 4;
  EXPECT_EQ(shape_of(net::render_monitor_step(2, live)),
            "{id:n,ok:b,verdict:s,events:n}");
  MonitorStepResult doom;
  doom.verdict = monitor::Verdict::kDoomed;
  doom.transition_index = 3;
  doom.transition_doomed = true;
  doom.witness = {"request", hostile};
  doom.witness_certified = true;
  const std::string doom_line = net::render_monitor_step(2, doom);
  EXPECT_EQ(shape_of(doom_line),
            "{id:n,ok:b,verdict:s,events:n,doomed_index:n,witness:[s,s],"
            "witness_certified:b}");
  EXPECT_EQ(parse_json(doom_line).find("witness")->array[1].as_string(),
            hostile);
  MonitorStepResult left;
  left.verdict = monitor::Verdict::kLeftSystem;
  left.transition_index = 0;
  EXPECT_EQ(shape_of(net::render_monitor_step(2, left)),
            "{id:n,ok:b,verdict:s,events:n,left_index:n}");
  MonitorStepResult bad;
  bad.error = "unknown_action";
  bad.error_detail = hostile;
  EXPECT_EQ(shape_of(net::render_monitor_step(2, bad)),
            "{id:n,ok:b,error:s,detail:s}");
  EXPECT_EQ(
      parse_json(net::render_monitor_step(2, bad)).find("detail")->as_string(),
      hostile);

  MonitorCloseResult closed;
  closed.closed = true;
  closed.events = 4;
  EXPECT_EQ(shape_of(net::render_monitor_close(3, closed)),
            "{id:n,ok:b,closed:b,events:n}");
  MonitorCloseResult unknown;
  unknown.error = "unknown_session";
  EXPECT_EQ(shape_of(net::render_monitor_close(3, unknown)),
            "{id:n,ok:b,error:s}");

  EXPECT_EQ(shape_of(net::render_error(std::nullopt, "bad_request", hostile)),
            "{ok:b,error:s,detail:s}");
  EXPECT_EQ(shape_of(net::render_overloaded(4, "server")),
            "{id:n,ok:b,error:s,overloaded:b,scope:s}");
}

TEST(NetWireShape, RequestsKeepKeysAndTypes) {
  const std::string hostile = hostile_text();
  Query plain;
  plain.system = hostile;
  plain.formula = hostile;
  std::string line = net::render_query_request(plain, 1, "");
  EXPECT_EQ(shape_of(line), "{id:n,system:s,formula:s,check:s}");
  EXPECT_EQ(parse_json(line).find("system")->as_string(), hostile);
  EXPECT_EQ(parse_json(line).find("formula")->as_string(), hostile);

  Query full;
  full.system = "sys";
  full.property_automaton = hostile;
  full.kind = CheckKind::kFairWeak;
  full.timeout_ms = 5;
  full.max_states = 6;
  full.certify = true;
  line = net::render_query_request(full, 2, hostile);
  EXPECT_EQ(shape_of(line),
            "{id:n,system:s,property_automaton:s,check:s,timeout_ms:n,"
            "max_states:n,certify:b,label:s}");
  EXPECT_EQ(parse_json(line).find("property_automaton")->as_string(), hostile);
  EXPECT_EQ(parse_json(line).find("label")->as_string(), hostile);

  MonitorSpec spec;
  spec.system = hostile;
  spec.formula = "G F a";
  EXPECT_EQ(shape_of(net::render_monitor_open_request(spec, 3, "")),
            "{op:s,id:n,system:s,formula:s}");
  spec.formula.clear();
  spec.property_automaton = hostile;
  spec.certify = true;
  EXPECT_EQ(shape_of(net::render_monitor_open_request(spec, 3, hostile)),
            "{op:s,id:n,system:s,property_automaton:s,certify:b,label:s}");

  line = net::render_monitor_step_request(7, {"request", hostile}, 4);
  EXPECT_EQ(shape_of(line), "{op:s,id:n,session:n,actions:[s,s]}");
  EXPECT_EQ(parse_json(line).find("actions")->array[1].as_string(), hostile);
  EXPECT_EQ(shape_of(net::render_monitor_step_request(7, {}, 4)),
            "{op:s,id:n,session:n,actions:[]}");
  EXPECT_EQ(shape_of(net::render_monitor_close_request(7, 5)),
            "{op:s,id:n,session:n}");
}

TEST(NetWireShape, StatsLinesKeepKeysAndTypes) {
  EngineStats stats;
  stats.queries_run = 2;
  stats.stages[Stage::kParse].calls = 2;
  stats.stages[Stage::kTranslate].calls = 1;
  stats.stages[Stage::kTranslate].nanos = 12345;
  const std::string counters = "{hits:n,coalesced:n,misses:n,evictions:n}";
  const std::string caches =
      "caches:{systems:" + counters + ",behaviors:" + counters +
      ",prefixes:" + counters + ",translations:" + counters +
      ",properties:" + counters + ",verdicts:" + counters +
      ",monitors:" + counters + ",total:" + counters + "}";
  const std::string monitor =
      "monitor:{sessions_open:n,sessions_peak:n,sessions_total:n,"
      "idle_reclaimed:n,steps:n,dooms:n}";
  const std::string stage =
      "{calls:n,states:n,peak_frontier:n,peak_kernel_bytes:n,ms:n}";
  EXPECT_EQ(shape_of(render_stats(stats)),
            "{queries:n,certificates_checked:n,certificates_failed:n," +
                caches + "," + monitor + ",stages:{parse:" + stage +
                ",translate:" + stage + "}}");

  TestServer ts;
  net::Client client = ts.connect_client();
  EXPECT_EQ(shape_of(client.call(R"({"op":"ping","id":1})")),
            "{id:n,ok:b,pong:b}");
  EXPECT_EQ(
      shape_of(client.call(R"({"op":"stats","id":2})")),
      "{id:n,ok:b,stats:{queries:n,certificates_checked:n,"
      "certificates_failed:n," + caches + "," + monitor + ",stages:{}},"
      "server:{connections_accepted:n,connections_open:n,requests:n,"
      "queries:n,overload_rejects:n,protocol_errors:n,idle_closed:n,"
      "bytes_read:n,bytes_written:n,inflight:n,accept_soft_errors:n,"
      "computing:n,queued:n,queued_total:n,draining:b}}");
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
