// isex::serve unit + integration tests: the bounded JSON parser, the request
// protocol, the certified result cache, the shedding policy, and the whole
// daemon loop driven over real pipes — interleaved valid/malformed/over-
// budget traffic, in-order responses, byte-identical cache hits, admission
// rejection, and graceful signal drain over a unix socket.
#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "isex/robust/budget.hpp"
#include "isex/serve/cache.hpp"
#include "isex/serve/json.hpp"
#include "isex/serve/protocol.hpp"
#include "isex/serve/server.hpp"

namespace isex::serve {
namespace {

// --- JSON parser -------------------------------------------------------------

TEST(ServeJson, ParsesScalarsAndNesting) {
  EXPECT_TRUE(json_parse("null").ok());
  EXPECT_TRUE(json_parse("true").ok());
  EXPECT_TRUE(json_parse("-12.5e3").ok());
  EXPECT_TRUE(json_parse("\"hi\\u00e9\\n\"").ok());
  const auto r = json_parse("{\"a\":[1,2,{\"b\":null}],\"a\":3}");
  ASSERT_TRUE(r.ok());
  const Json* a = r.value.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->as_number(), 3);  // duplicate key: last wins
}

TEST(ServeJson, RejectsMalformed) {
  for (const char* bad :
       {"", "tru", "nul", "{", "[1,", "{\"a\":}", "01", "1.", "+1", "--2",
        "\"\\x\"", "\"\xc3(\"", "\"\\ud800\"", "[] []", "1 2", "{\"a\" 1}",
        "\"unterminated", "[1,2,]", "{,}", "\x01", "nan", "Infinity"}) {
    const auto r = json_parse(bad);
    EXPECT_FALSE(r.ok()) << "accepted: " << bad;
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(ServeJson, EnforcesLimits) {
  JsonLimits lim;
  lim.max_depth = 8;
  std::string deep;
  for (int i = 0; i < 9; ++i) deep += "[";
  for (int i = 0; i < 9; ++i) deep += "]";
  EXPECT_FALSE(json_parse(deep, lim).ok());

  lim = JsonLimits{};
  lim.max_values = 4;
  EXPECT_FALSE(json_parse("[1,2,3,4,5]", lim).ok());

  lim = JsonLimits{};
  lim.max_string_bytes = 4;
  EXPECT_FALSE(json_parse("\"abcdef\"", lim).ok());
  EXPECT_TRUE(json_parse("\"abc\"", lim).ok());
}

TEST(ServeJson, NumberRendering) {
  const auto num = [](double v) { return util::JsonWriter().number(v).take(); };
  EXPECT_EQ(num(3), "3");
  EXPECT_EQ(num(-0.5), "-0.5");
  EXPECT_EQ(num(1e300), num(1e300));  // stable
}

// --- protocol decode ---------------------------------------------------------

Request decode_ok(const std::string& line) {
  auto dr = decode_request(line, RequestLimits{});
  const auto* err = std::get_if<DecodeError>(&dr);
  EXPECT_EQ(err, nullptr) << (err ? err->message : "");
  return std::get<Request>(dr);
}

DecodeError decode_err(const std::string& line) {
  auto dr = decode_request(line, RequestLimits{});
  EXPECT_TRUE(std::holds_alternative<DecodeError>(dr)) << line;
  return std::holds_alternative<DecodeError>(dr) ? std::get<DecodeError>(dr)
                                                 : DecodeError{};
}

TEST(ServeProtocol, DecodesSelect) {
  const Request r = decode_ok(
      "{\"id\":\"r1\",\"cmd\":\"select\",\"benchmarks\":[\"crc32\"],"
      "\"u0\":1.1,\"budget_fraction\":0.5,\"policy\":\"rms\","
      "\"node_budget\":1000,\"time_budget_ms\":50}");
  EXPECT_EQ(r.id, "r1");
  EXPECT_EQ(r.cmd, Cmd::kSelect);
  EXPECT_EQ(r.policy, rt::Policy::kRms);
  ASSERT_EQ(r.benchmarks.size(), 1u);
  EXPECT_EQ(r.node_budget, 1000);
  EXPECT_NEAR(r.time_budget_seconds, 0.05, 1e-12);
  EXPECT_FALSE(r.budget_clamped);
}

TEST(ServeProtocol, ClampsOversizedBudgets) {
  RequestLimits lim;
  const Request r = decode_ok(
      "{\"cmd\":\"select\",\"benchmarks\":[\"crc32\"],\"u0\":1.0,"
      "\"budget_fraction\":0.5,\"time_budget_ms\":3600000,"
      "\"node_budget\":999999999999}");
  EXPECT_TRUE(r.budget_clamped);
  EXPECT_LE(r.time_budget_seconds, lim.max_time_budget_seconds);
  EXPECT_LE(r.node_budget, lim.max_node_budget);
}

TEST(ServeProtocol, RejectsSchemaViolations) {
  // Error code bad_request, and the id is echoed when it parsed.
  const DecodeError both = decode_err(
      "{\"id\":\"x\",\"cmd\":\"select\",\"benchmarks\":[\"a\"],\"u0\":1,"
      "\"tasks\":[],\"budget_fraction\":0.5}");
  EXPECT_EQ(both.code, ErrorCode::kBadRequest);
  EXPECT_EQ(both.id, "x");

  EXPECT_EQ(decode_err("{\"cmd\":\"select\",\"benchmarks\":[\"a\"],"
                       "\"u0\":1}").code,
            ErrorCode::kBadRequest);  // missing area constraint
  EXPECT_EQ(decode_err("{\"id\":42,\"cmd\":\"ping\"}").code,
            ErrorCode::kBadRequest);  // id must be a string
  EXPECT_EQ(decode_err("{\"cmd\":\"fly\"}").code, ErrorCode::kBadRequest);
  EXPECT_EQ(decode_err("{\"cmd\":\"select\",\"benchmarks\":[\"a\"],"
                       "\"u0\":-1,\"budget_fraction\":0.5}").code,
            ErrorCode::kBadRequest);
  EXPECT_EQ(decode_err("not json").code, ErrorCode::kParseError);
}

TEST(ServeProtocol, DecodesInlineTasksAndDfg) {
  const Request r = decode_ok(
      "{\"cmd\":\"select\",\"area_budget\":2,\"tasks\":["
      "{\"name\":\"t0\",\"period\":50,\"configs\":[[0,40],[2,20]]},"
      "{\"name\":\"t1\",\"period\":100,\"dfg\":[{\"op\":\"input\",\"in\":[]},"
      "{\"op\":\"not\",\"in\":[0],\"out\":true}]}]}");
  ASSERT_EQ(r.tasks.size(), 2u);
  EXPECT_FALSE(r.tasks[0].has_dfg);
  ASSERT_EQ(r.tasks[0].configs.size(), 2u);
  EXPECT_TRUE(r.tasks[1].has_dfg);
  // DFG operand referencing a later op is rejected.
  EXPECT_EQ(decode_err("{\"cmd\":\"select\",\"area_budget\":2,\"tasks\":["
                       "{\"name\":\"t\",\"period\":9,\"dfg\":["
                       "{\"op\":\"not\",\"in\":[1]},"
                       "{\"op\":\"input\",\"in\":[]}]}]}").code,
            ErrorCode::kBadRequest);
}

// --- cache -------------------------------------------------------------------

rt::TaskSet tiny_taskset() {
  rt::TaskSet ts;
  ts.tasks.push_back(rt::Task{"a", 100, {{0, 50}, {2, 25}}});
  ts.tasks.push_back(rt::Task{"b", 200, {{0, 80}, {3, 40}}});
  return ts;
}

TEST(ServeCache, KeyCoversAnswerDeterminingInputs) {
  const rt::TaskSet ts = tiny_taskset();
  const auto base = select_cache_key(ts, 3.0, rt::Policy::kEdf, 1.0, 1000,
                                     1 << 20, false, 0);
  EXPECT_EQ(base, select_cache_key(ts, 3.0, rt::Policy::kEdf, 1.0, 1000,
                                   1 << 20, false, 0));
  EXPECT_NE(base, select_cache_key(ts, 2.0, rt::Policy::kEdf, 1.0, 1000,
                                   1 << 20, false, 0));
  EXPECT_NE(base, select_cache_key(ts, 3.0, rt::Policy::kRms, 1.0, 1000,
                                   1 << 20, false, 0));
  EXPECT_NE(base, select_cache_key(ts, 3.0, rt::Policy::kEdf, 1.0, 999,
                                   1 << 20, false, 0));
  EXPECT_NE(base, select_cache_key(ts, 3.0, rt::Policy::kEdf, 1.0, 1000,
                                   1 << 20, false, 1));  // shed rung
  rt::TaskSet ts2 = tiny_taskset();
  ts2.tasks[1].configs[1].cycles = 41;  // one curve point changed
  EXPECT_NE(base, select_cache_key(ts2, 3.0, rt::Policy::kEdf, 1.0, 1000,
                                   1 << 20, false, 0));
}

TEST(ServeCache, LruEvictionAndPoison) {
  CacheOptions co;
  co.max_entries = 2;
  ResultCache cache(co);
  ResultCache::Entry e;
  e.result_json = "{}";
  cache.insert(1, e);
  cache.insert(2, e);
  EXPECT_NE(cache.find(1), nullptr);  // touch 1 -> 2 becomes LRU
  cache.insert(3, e);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.find(2), nullptr);  // evicted
  EXPECT_EQ(cache.evictions(), 1u);
  cache.erase(1);
  EXPECT_EQ(cache.poisoned(), 1u);
  cache.erase(99);  // absent: not counted
  EXPECT_EQ(cache.poisoned(), 1u);
}

// --- server: in-process handle_line ------------------------------------------

// Inline-task selects keep these tests independent of the benchmark curve
// cache (no multi-second cold curve builds inside unit tests).
std::string inline_select(const std::string& id, double area = 3.0) {
  return "{\"id\":\"" + id + "\",\"cmd\":\"select\",\"area_budget\":" +
         util::JsonWriter().number(area).take() +
         ",\"tasks\":[{\"name\":\"t0\",\"period\":100,\"configs\":"
         "[[0,50],[2,25]]},{\"name\":\"t1\",\"period\":200,\"configs\":"
         "[[0,80],[1,60],[3,40]]}],\"node_budget\":50000}";
}

TEST(ServeServer, PingStatsAndErrors) {
  Server server{ServerOptions{}};
  const std::string pong = server.handle_line("{\"id\":\"p\",\"cmd\":\"ping\"}");
  EXPECT_NE(pong.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(pong.find("\"id\":\"p\""), std::string::npos);
  EXPECT_NE(server.handle_line("{\"cmd\":\"stats\"}").find("\"cmd\":\"stats\""),
            std::string::npos);
  const std::string err = server.handle_line("{{{");
  EXPECT_NE(err.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(err.find("parse_error"), std::string::npos);
  EXPECT_EQ(server.stats().parse_errors, 1u);
}

TEST(ServeServer, SelectIsCertifiedAndCacheHitsAreByteIdentical) {
  Server server{ServerOptions{}};
  const std::string cold = server.handle_line(inline_select("c1"));
  ASSERT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;
  EXPECT_NE(cold.find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(cold.find("\"certificate\":{\"ok\":true"), std::string::npos);

  const std::string hit = server.handle_line(inline_select("c2"));
  ASSERT_NE(hit.find("\"cache\":\"hit\""), std::string::npos) << hit;
  // The stable `result` object (the tail of the envelope) is byte-identical.
  const auto tail = [](const std::string& s) {
    const std::size_t p = s.find("\"result\":");
    EXPECT_NE(p, std::string::npos);
    return s.substr(p);
  };
  EXPECT_EQ(tail(cold), tail(hit));
  EXPECT_EQ(server.stats().cache_hits, 1u);
  EXPECT_EQ(server.cache().hits(), 1u);
}

TEST(ServeServer, DeepQueueShedsToDegradedRung) {
  ServerOptions so;
  so.shed1_depth = 2;
  so.shed2_depth = 4;
  Server server{so};
  const std::string calm = server.handle_line(inline_select("a"), 0);
  EXPECT_NE(calm.find("\"shed_rung\":0"), std::string::npos);
  EXPECT_NE(calm.find("\"status\":\"Exact\""), std::string::npos);
  const std::string shed = server.handle_line(inline_select("b"), 3);
  EXPECT_NE(shed.find("\"shed_rung\":1"), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"status\":\"Degraded\""), std::string::npos);
  EXPECT_NE(shed.find("\"certificate\":{\"ok\":true"), std::string::npos);
  const std::string shed2 = server.handle_line(inline_select("c"), 5);
  EXPECT_NE(shed2.find("\"shed_rung\":2"), std::string::npos);
  EXPECT_GE(server.stats().shed_demotions, 2u);
  // Shed results live under different cache keys than exact ones.
  EXPECT_EQ(server.stats().cache_hits, 0u);
}

TEST(ServeServer, IsolationTurnsInternalFaultsIntoResponses) {
  Server server{ServerOptions{}};
  // A structurally valid request whose task set fails validation deep in the
  // library (period fine, but configs not starting at area 0).
  const std::string r = server.handle_line(
      "{\"id\":\"z\",\"cmd\":\"select\",\"area_budget\":1,\"tasks\":["
      "{\"name\":\"t\",\"period\":10,\"configs\":[[1,5]]}]}");
  EXPECT_NE(r.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(r.find("\"id\":\"z\""), std::string::npos);
}

// --- server: pipe-driven integration ----------------------------------------

/// Runs a request stream through Server::run over real pipes and returns the
/// response lines.
std::vector<std::string> run_over_pipe(Server& server,
                                       const std::vector<std::string>& reqs,
                                       int* rc_out = nullptr) {
  int in[2], out[2];
  EXPECT_EQ(::pipe(in), 0);
  EXPECT_EQ(::pipe(out), 0);
  std::string payload;
  for (const auto& r : reqs) payload += r + "\n";
  // Writer thread: pipes have finite capacity and the server may block on
  // writes if we don't drain concurrently.
  std::thread writer([&] {
    std::size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n =
          ::write(in[1], payload.data() + off, payload.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(in[1]);
  });
  std::string blob;
  std::thread reader([&] {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(out[0], buf, sizeof buf);
      if (n <= 0) break;
      blob.append(buf, static_cast<std::size_t>(n));
    }
  });
  const int rc = server.run(in[0], out[1]);
  ::close(out[1]);
  ::close(in[0]);
  writer.join();
  reader.join();
  ::close(out[0]);
  if (rc_out != nullptr) *rc_out = rc;

  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = blob.find('\n'); nl != std::string::npos;
       nl = blob.find('\n', start)) {
    lines.push_back(blob.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

TEST(ServeServer, PipeStreamInOrderMixedTraffic) {
  Server server{ServerOptions{}};
  std::vector<std::string> reqs;
  for (int i = 0; i < 12; ++i) {
    switch (i % 4) {
      case 0: reqs.push_back(inline_select("q" + std::to_string(i))); break;
      case 1: reqs.push_back("{\"id\":\"q" + std::to_string(i) +
                             "\",\"cmd\":\"ping\"}"); break;
      case 2: reqs.push_back("broken json " + std::to_string(i)); break;
      default:  // over-budget: starvation node budget, still answered
        reqs.push_back("{\"id\":\"q" + std::to_string(i) +
                       "\",\"cmd\":\"select\",\"area_budget\":3,\"tasks\":["
                       "{\"name\":\"t0\",\"period\":100,\"configs\":"
                       "[[0,50],[2,25]]}],\"node_budget\":1}");
    }
  }
  int rc = -1;
  const auto lines = run_over_pipe(server, reqs, &rc);
  EXPECT_EQ(rc, 0);
  ASSERT_EQ(lines.size(), reqs.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i % 4 == 2) {
      EXPECT_NE(lines[i].find("parse_error"), std::string::npos) << lines[i];
    } else {
      // Response i correlates to request i: in-order responses.
      EXPECT_NE(lines[i].find("\"id\":\"q" + std::to_string(i) + "\""),
                std::string::npos)
          << lines[i];
    }
    // Every successful select carries a passing certificate.
    if (lines[i].find("\"cmd\":\"select\"") != std::string::npos &&
        lines[i].find("\"ok\":true") != std::string::npos)
      EXPECT_NE(lines[i].find("\"certificate\":{\"ok\":true"),
                std::string::npos)
          << lines[i];
  }
}

TEST(ServeServer, AdmissionControlRejectsInOrder) {
  ServerOptions so;
  so.queue_capacity = 2;
  Server server{so};
  std::vector<std::string> reqs;
  for (int i = 0; i < 10; ++i)
    reqs.push_back(inline_select("q" + std::to_string(i)));
  const auto lines = run_over_pipe(server, reqs);
  ASSERT_EQ(lines.size(), reqs.size());
  std::size_t overloads = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"id\":\"q" + std::to_string(i) + "\""),
              std::string::npos)
        << "out of order at " << i << ": " << lines[i];
    if (lines[i].find("\"code\":\"overload\"") != std::string::npos) {
      ++overloads;
      EXPECT_NE(lines[i].find("\"retry_after_ms\":"), std::string::npos);
    }
  }
  // The whole burst lands before the first solve: capacity 2 admits the
  // head, the rest must be rejected (shed, never queued unboundedly).
  EXPECT_GE(overloads, 1u);
  EXPECT_EQ(server.stats().rejected_overload, overloads);
  EXPECT_LE(server.stats().accepted, 10u - overloads + 1);
}

TEST(ServeServer, OversizedLineGetsTooLargeAndStreamRecovers) {
  ServerOptions so;
  so.limits.max_request_bytes = 256;
  Server server{so};
  std::string huge = "{\"id\":\"big\",\"cmd\":\"ping\",\"pad\":\"";
  huge.append(2000, 'x');
  huge += "\"}";
  const auto lines = run_over_pipe(
      server, {huge, "{\"id\":\"after\",\"cmd\":\"ping\"}"});
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("too_large"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"id\":\"after\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos);
}

TEST(ServeServer, VanishingClientIsAWriteErrorNotSigpipe) {
  // A client that queues requests and disappears without reading a byte
  // must surface as a failed write (rc 2), never as SIGPIPE killing the
  // daemon: install_signal_handlers ignores SIGPIPE and write_all_fd sends
  // with MSG_NOSIGNAL on sockets.
  install_signal_handlers();
  consume_pending_signal();
  robust::clear_global_cancel();

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Server server{ServerOptions{}};
  std::string payload;
  for (int i = 0; i < 4; ++i)
    payload += inline_select("v" + std::to_string(i)) + "\n";
  ASSERT_EQ(::write(sv[1], payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  ::close(sv[1]);  // the client is gone before any response exists
  EXPECT_EQ(server.run(sv[0], sv[0]), 2);
  ::close(sv[0]);

  // Same, but the client only half-closes: it shuts down its read side and
  // keeps the socket open. Responses still have nowhere to go.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(::write(sv[1], payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  ::shutdown(sv[1], SHUT_RD);
  ::shutdown(sv[1], SHUT_WR);  // and EOF on the request side
  EXPECT_EQ(server.run(sv[0], sv[0]), 2);
  ::close(sv[0]);
  ::close(sv[1]);

  // The server object survives the dead streams and serves the next one.
  const auto lines = run_over_pipe(server, {inline_select("again")});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
}

TEST(ServeServer, UnixSocketServesAndDrainsOnSignal) {
  // End-to-end over AF_UNIX, shut down by a real SIGTERM: the accept loop
  // exits, the socket file is removed, and the signal machinery is left
  // clean for the rest of the test binary.
  install_signal_handlers();
  consume_pending_signal();
  robust::clear_global_cancel();

  const std::string path = "/tmp/isex_serve_test_" +
                           std::to_string(::getpid()) + ".sock";
  Server server{ServerOptions{}};
  std::thread srv([&] { run_unix_socket(server, path); });

  int fd = -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int tries = 0; tries < 100; ++tries) {  // wait for bind
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
      break;
    ::close(fd);
    fd = -1;
    ::usleep(20000);
  }
  ASSERT_GE(fd, 0) << "could not connect to " << path;
  const std::string req = "{\"id\":\"sock\",\"cmd\":\"ping\"}\n";
  ASSERT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  ::shutdown(fd, SHUT_WR);
  std::string resp;
  char buf[1024];
  for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) > 0;)
    resp.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  EXPECT_NE(resp.find("\"id\":\"sock\""), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos);

  ::raise(SIGTERM);
  srv.join();
  EXPECT_EQ(consume_pending_signal(), SIGTERM);
  robust::clear_global_cancel();
  EXPECT_NE(::unlink(path.c_str()), 0);  // already removed by the server
}

}  // namespace
}  // namespace isex::serve
