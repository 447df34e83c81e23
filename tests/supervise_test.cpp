// isex::supervise tests: the supervisor<->worker wire protocol, deterministic
// chaos decisions, per-worker rlimits, and the full crash-isolated pool
// driven over real pipes — in-order responses under multi-worker dispatch,
// byte-identical results vs the single-process path, crash retry + poison
// quarantine, the hung-solve watchdog, the restart-storm circuit breaker,
// respawn after an external SIGKILL, and graceful drain — plus the serve
// loop's mode-independent contract: answers the supervisor makes itself
// leave without waiting for the poll timeout, and the same traffic with
// and without workers is answered in order and recorded once.
//
// All signal-specific assertions use SIGABRT/SIGKILL: sanitizers may turn a
// SIGSEGV into a plain exit, but abort() and an external kill -9 terminate
// with the real signal everywhere.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "isex/serve/json.hpp"
#include "isex/serve/server.hpp"
#include "isex/supervise/chaos.hpp"
#include "isex/supervise/frame.hpp"
#include "isex/supervise/worker.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ISEX_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ISEX_TEST_UNDER_SANITIZER 1
#endif
#endif

namespace isex::supervise {
namespace {

// --- frames ------------------------------------------------------------------

TEST(SuperviseFrame, RequestRoundTripOverSocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  RequestHeader hdr;
  hdr.rid = 42;
  hdr.queue_depth = 7;
  const std::string line = "{\"cmd\":\"ping\"}";
  ASSERT_TRUE(write_frame(sv[0], hdr, line));

  RequestHeader got;
  std::string body;
  ASSERT_EQ(read_request_frame(sv[1], &got, &body, 1 << 20), 1);
  EXPECT_EQ(got.rid, 42u);
  EXPECT_EQ(got.queue_depth, 7);
  EXPECT_EQ(body, line);

  // encode_frame produces the same wire bytes write_frame sends.
  const std::string raw = encode_frame(hdr, line);
  ASSERT_EQ(::write(sv[0], raw.data(), raw.size()),
            static_cast<ssize_t>(raw.size()));
  ASSERT_EQ(read_request_frame(sv[1], &got, &body, 1 << 20), 1);
  EXPECT_EQ(body, line);

  // Clean EOF between frames reads as 0, not an error.
  ::close(sv[0]);
  EXPECT_EQ(read_request_frame(sv[1], &got, &body, 1 << 20), 0);
  ::close(sv[1]);
}

TEST(SuperviseFrame, ReaderReassemblesByteAtATime) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ResponseHeader hdr;
  hdr.rid = 9;
  hdr.nodes_charged = 123;
  hdr.disposition = 3;
  hdr.error_kind = 0;
  hdr.flags = kRespFlagCacheable;
  const std::string resp = "{\"ok\":true}";
  ASSERT_TRUE(write_frame(sv[0], hdr, resp));
  char buf[512];
  const ssize_t n = ::read(sv[1], buf, sizeof buf);
  ASSERT_GT(n, 0);
  ::close(sv[0]);
  ::close(sv[1]);

  FrameReader reader(1 << 20);
  ResponseHeader got;
  std::string body;
  for (ssize_t i = 0; i < n; ++i) {
    EXPECT_FALSE(reader.error());
    const bool complete = i + 1 == n;
    reader.append(buf + i, 1);
    EXPECT_EQ(reader.next(&got, &body), complete) << "byte " << i;
  }
  EXPECT_EQ(got.rid, 9u);
  EXPECT_EQ(got.nodes_charged, 123);
  EXPECT_EQ(got.flags, kRespFlagCacheable);
  EXPECT_EQ(body, resp);
  EXPECT_FALSE(reader.next(&got, &body));  // no second frame
}

TEST(SuperviseFrame, GarbageLengthPoisonsTheStream) {
  FrameReader reader(4096);
  const char junk[4] = {'\xff', '\xff', '\xff', '\xff'};
  reader.append(junk, 4);
  ResponseHeader hdr;
  std::string body;
  EXPECT_FALSE(reader.next(&hdr, &body));
  EXPECT_TRUE(reader.error());
  reader.reset();
  EXPECT_FALSE(reader.error());
}

// --- chaos -------------------------------------------------------------------

TEST(SuperviseChaos, DeterministicPureFunctionOfBytes) {
  const std::string line = "{\"id\":\"x\",\"cmd\":\"select\"}";
  const ChaosKind k = chaos_decision(line, 1.0, 7);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(chaos_decision(line, 1.0, 7), k);
  EXPECT_EQ(chaos_decision(line, 0.0, 7), ChaosKind::kNone);
  EXPECT_EQ(chaos_decision(line, -1.0, 7), ChaosKind::kNone);

  // Probability 1 always injects; different seeds decide independently.
  EXPECT_NE(chaos_decision(line, 1.0, 7), ChaosKind::kNone);
  int diverged = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed)
    diverged += chaos_decision(line, 1.0, seed) != k ? 1 : 0;
  EXPECT_GT(diverged, 0);
}

TEST(SuperviseChaos, MarkersForceTheKindWheneverChaosIsOn) {
  EXPECT_EQ(chaos_decision("x \"chaos\":\"abort\" y", 1e-9, 1),
            ChaosKind::kAbort);
  EXPECT_EQ(chaos_decision("{\"chaos\":\"segv\"}", 1e-9, 1), ChaosKind::kSegv);
  EXPECT_EQ(chaos_decision("{\"chaos\":\"hang\"}", 1e-9, 1), ChaosKind::kHang);
  EXPECT_EQ(chaos_decision("{\"chaos\":\"leak\"}", 1e-9, 1), ChaosKind::kLeak);
  // Chaos off: even explicit markers are inert.
  EXPECT_EQ(chaos_decision("{\"chaos\":\"abort\"}", 0.0, 1), ChaosKind::kNone);
}

TEST(SuperviseChaos, AllKindsAppearAndRateTracksProbability) {
  int kinds[5] = {0, 0, 0, 0, 0};
  int injected = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string line = "{\"id\":\"req" + std::to_string(i) + "\"}";
    ++kinds[static_cast<int>(chaos_decision(line, 1.0, 3))];
    if (chaos_decision(line, 0.05, 3) != ChaosKind::kNone) ++injected;
  }
  EXPECT_EQ(kinds[0], 0);  // p=1: every request sabotaged
  for (int k = 1; k <= 4; ++k) EXPECT_GT(kinds[k], 0) << "kind " << k;
  // p=0.05 over 2000 lines: expect ~100, allow wide slack.
  EXPECT_GT(injected, 40);
  EXPECT_LT(injected, 250);
}

// --- rlimits -----------------------------------------------------------------

TEST(SuperviseWorker, RlimitsApplyInAForkedChild) {
  serve::ServerOptions so;
  so.worker_nofile_limit = 64;
  so.worker_cpu_limit_seconds = 600;
  so.worker_mem_limit_bytes = std::size_t{1} << 30;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    apply_worker_rlimits(so);
    struct rlimit rl{};
    if (::getrlimit(RLIMIT_CORE, &rl) != 0 || rl.rlim_cur != 0) ::_exit(10);
    if (::getrlimit(RLIMIT_NOFILE, &rl) != 0 || rl.rlim_cur != 64) ::_exit(11);
    if (::getrlimit(RLIMIT_CPU, &rl) != 0 || rl.rlim_cur != 600) ::_exit(12);
#ifndef ISEX_TEST_UNDER_SANITIZER
    if (::getrlimit(RLIMIT_AS, &rl) != 0 ||
        rl.rlim_cur != (rlim_t{1} << 30))
      ::_exit(13);
#endif
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// --- the pool, end to end over pipes -----------------------------------------

std::string inline_select(const std::string& id, double area = 3.0,
                          const std::string& extra = "") {
  return "{\"id\":\"" + id + "\",\"cmd\":\"select\",\"area_budget\":" +
         serve::json_number(area) + extra +
         ",\"tasks\":[{\"name\":\"t0\",\"period\":100,\"configs\":"
         "[[0,50],[2,25]]},{\"name\":\"t1\",\"period\":200,\"configs\":"
         "[[0,80],[1,60],[3,40]]}],\"node_budget\":50000}";
}

/// Interactive pipe session against Server::run in a background thread:
/// send lines one at a time, read responses with a deadline, then finish().
class PipeSession {
 public:
  explicit PipeSession(serve::Server& server) {
    EXPECT_EQ(::pipe(in_), 0);
    EXPECT_EQ(::pipe(out_), 0);
    th_ = std::thread([&server, this] {
      rc_ = server.run(in_[0], out_[1]);
      ::close(out_[1]);
      ::close(in_[0]);
    });
  }
  ~PipeSession() {
    if (th_.joinable()) finish();
  }

  void send(const std::string& line) {
    const std::string l = line + "\n";
    ASSERT_EQ(::write(in_[1], l.data(), l.size()),
              static_cast<ssize_t>(l.size()));
  }

  /// Next response line, or "" after `timeout_ms` of silence (test failure).
  std::string recv_line(int timeout_ms = 20000) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      struct pollfd pfd {out_[0], POLLIN, 0};
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr <= 0) {
        ADD_FAILURE() << "timed out waiting for a response line";
        return "";
      }
      char tmp[4096];
      const ssize_t n = ::read(out_[0], tmp, sizeof tmp);
      if (n <= 0) {
        ADD_FAILURE() << "server closed the response pipe";
        return "";
      }
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

  int finish() {
    if (in_[1] >= 0) {
      ::close(in_[1]);
      in_[1] = -1;
    }
    th_.join();
    ::close(out_[0]);
    return rc_;
  }

  /// Joins WITHOUT closing stdin: the server must end the stream on its own
  /// (drain). Hangs the test (and trips the ctest timeout) if it does not.
  int join_exit() {
    th_.join();
    ::close(in_[1]);
    in_[1] = -1;
    ::close(out_[0]);
    return rc_;
  }

 private:
  int in_[2]{-1, -1}, out_[2]{-1, -1};
  std::thread th_;
  std::string buf_;
  int rc_ = -1;
};

/// First integer after `"key":` in a flat JSON rendering (good enough for
/// the introspect/stat fields these tests poke at).
long json_int_field(const std::string& s, const std::string& key,
                    std::size_t from = 0) {
  const std::size_t p = s.find("\"" + key + "\":", from);
  if (p == std::string::npos) return -1;
  return std::strtol(s.c_str() + p + key.size() + 3, nullptr, 10);
}

TEST(SupervisePool, InOrderMixedTrafficAndByteIdenticalResults) {
  // Reference pass: the exact same requests through the in-process path.
  serve::ServerOptions ref_so;
  serve::Server reference{ref_so};

  serve::ServerOptions so;
  so.workers = 2;
  serve::Server server{so};
  PipeSession session(server);

  std::vector<std::string> reqs;
  for (int i = 0; i < 10; ++i) {
    switch (i % 3) {
      case 0: reqs.push_back(inline_select("q" + std::to_string(i))); break;
      case 1: reqs.push_back("{\"id\":\"q" + std::to_string(i) +
                             "\",\"cmd\":\"ping\"}"); break;
      default: reqs.push_back("broken json " + std::to_string(i));
    }
  }
  for (const auto& r : reqs) session.send(r);
  const auto result_tail = [](const std::string& s) {
    const std::size_t p = s.find("\"result\":");
    return p == std::string::npos ? std::string() : s.substr(p);
  };
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::string line = session.recv_line();
    ASSERT_FALSE(line.empty());
    if (i % 3 == 2) {
      EXPECT_NE(line.find("parse_error"), std::string::npos) << line;
    } else {
      EXPECT_NE(line.find("\"id\":\"q" + std::to_string(i) + "\""),
                std::string::npos)
          << "out of order at " << i << ": " << line;
    }
    if (i % 3 == 0) {
      // The stable result object must be byte-identical to the
      // single-process server's answer for the same bytes.
      const std::string ref = reference.handle_line(reqs[i]);
      ASSERT_NE(line.find("\"ok\":true"), std::string::npos) << line;
      EXPECT_EQ(result_tail(line), result_tail(ref)) << line;
    }
  }

  // stats must show the pool working: dispatches happened, workers live.
  session.send("{\"cmd\":\"stats\"}");
  const std::string stats = session.recv_line();
  EXPECT_EQ(json_int_field(stats, "configured"), 2);
  EXPECT_EQ(json_int_field(stats, "live"), 2);
  EXPECT_GT(json_int_field(stats, "dispatched"), 0);
  EXPECT_EQ(session.finish(), 0);
}

TEST(SupervisePool, SupervisorAnswersDoNotWaitForThePoll) {
  // Lines the supervisor answers itself (admin commands, exact-byte cache
  // hits, too_large tombstones) must be written before the loop blocks in
  // poll(), not when its 200 ms timeout next expires.
  serve::ServerOptions so;
  so.workers = 2;
  so.limits.max_request_bytes = 1024;
  serve::Server server{so};
  PipeSession session(server);
  const auto timed_ms = [&session](const std::string& line,
                                   std::string* response) {
    const auto t0 = std::chrono::steady_clock::now();
    session.send(line);
    *response = session.recv_line();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  // A worker solves this first; its result lands in the supervisor cache.
  const std::string select = inline_select("rep");
  session.send(select);
  ASSERT_NE(session.recv_line().find("\"ok\":true"), std::string::npos);

  std::string r;
  const double ping_ms = timed_ms("{\"id\":\"p\",\"cmd\":\"ping\"}", &r);
  EXPECT_NE(r.find("\"id\":\"p\""), std::string::npos) << r;
  EXPECT_LT(ping_ms, 50.0);

  const double hit_ms = timed_ms(select, &r);
  EXPECT_NE(r.find("\"cache\":\"hit\""), std::string::npos) << r;
  EXPECT_LT(hit_ms, 50.0);

  // Longer than one 64 KiB read, so the loop is already discarding it when
  // the newline arrives: the answer is the loop's own tombstone.
  const double big_ms = timed_ms(std::string(100'000, 'x'), &r);
  EXPECT_NE(r.find("\"code\":\"too_large\""), std::string::npos) << r;
  EXPECT_LT(big_ms, 50.0);
  EXPECT_EQ(session.finish(), 0);
}

TEST(SupervisePool, CrashRetryThenPoisonQuarantine) {
  serve::ServerOptions so;
  so.workers = 2;
  so.poison_kill_threshold = 2;
  so.chaos_probability = 1e-9;  // markers honored, dice ~never fire
  serve::Server server{so};
  PipeSession session(server);

  // The marker makes every worker that touches this line abort().
  const std::string poison =
      inline_select("p0", 3.0, ",\"chaos\":\"abort\"");
  session.send(poison);
  const std::string r1 = session.recv_line();
  EXPECT_NE(r1.find("\"code\":\"worker_crashed\""), std::string::npos) << r1;
  EXPECT_NE(r1.find("\"signal\":6"), std::string::npos) << r1;  // SIGABRT
  EXPECT_NE(r1.find("\"kills\":2"), std::string::npos) << r1;
  EXPECT_NE(r1.find("quarantined"), std::string::npos) << r1;

  // Same bytes again: refused up front, no worker ever sees it.
  session.send(poison);
  const std::string r2 = session.recv_line();
  EXPECT_NE(r2.find("\"code\":\"quarantined\""), std::string::npos) << r2;

  // The pool recovers: an innocent request still gets solved.
  session.send(inline_select("after"));
  const std::string r3 = session.recv_line();
  EXPECT_NE(r3.find("\"id\":\"after\""), std::string::npos) << r3;
  EXPECT_NE(r3.find("\"ok\":true"), std::string::npos) << r3;

  session.send("{\"cmd\":\"stats\"}");
  const std::string stats = session.recv_line();
  EXPECT_EQ(json_int_field(stats, "crashes"), 2);
  EXPECT_EQ(json_int_field(stats, "retried"), 1);
  EXPECT_EQ(json_int_field(stats, "quarantined"), 1);
  EXPECT_EQ(json_int_field(stats, "quarantine_hits"), 1);
  EXPECT_GE(json_int_field(stats, "respawns"), 1);
  EXPECT_EQ(session.finish(), 0);
}

TEST(SupervisePool, WatchdogKillsHungSolve) {
  serve::ServerOptions so;
  so.workers = 1;
  so.watchdog_seconds = 0.3;
  so.watchdog_grace_seconds = 0.1;
  so.chaos_probability = 1e-9;
  serve::Server server{so};
  PipeSession session(server);

  session.send(inline_select("h0", 3.0, ",\"chaos\":\"hang\""));
  const std::string r1 = session.recv_line();
  EXPECT_NE(r1.find("\"code\":\"worker_timeout\""), std::string::npos) << r1;

  // The replacement worker serves the next request.
  session.send(inline_select("after"));
  const std::string r2 = session.recv_line();
  EXPECT_NE(r2.find("\"ok\":true"), std::string::npos) << r2;

  session.send("{\"cmd\":\"stats\"}");
  const std::string stats = session.recv_line();
  EXPECT_EQ(json_int_field(stats, "timeouts"), 1);
  EXPECT_GE(json_int_field(stats, "respawns"), 1);
  EXPECT_EQ(session.finish(), 0);
}

TEST(SupervisePool, ExternalSigkillRespawnsAndServiceContinues) {
  serve::ServerOptions so;
  so.workers = 1;
  serve::Server server{so};
  PipeSession session(server);

  session.send("{\"cmd\":\"introspect\"}");
  const std::string intro = session.recv_line();
  const long pid = json_int_field(intro, "pid", intro.find("per_worker"));
  ASSERT_GT(pid, 0) << intro;
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGKILL), 0);
  ::usleep(50'000);  // let the death land before the next dispatch

  session.send(inline_select("alive"));
  const std::string r = session.recv_line();
  EXPECT_NE(r.find("\"id\":\"alive\""), std::string::npos) << r;
  EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;

  session.send("{\"cmd\":\"introspect\"}");
  const std::string intro2 = session.recv_line();
  const long pid2 = json_int_field(intro2, "pid", intro2.find("per_worker"));
  EXPECT_GT(pid2, 0);
  EXPECT_NE(pid2, pid);
  EXPECT_GE(json_int_field(intro2, "respawns"), 1);
  EXPECT_EQ(session.finish(), 0);
}

TEST(SupervisePool, RestartStormOpensBreakerAndFailsFast) {
  serve::ServerOptions so;
  so.workers = 1;
  so.poison_kill_threshold = 1;  // every crash is final: no retries
  so.breaker_max_respawns = 1;
  so.breaker_window_seconds = 60;
  so.breaker_cooldown_seconds = 60;
  so.chaos_probability = 1e-9;
  serve::Server server{so};
  PipeSession session(server);

  // Three distinct poison lines: two respawns trip the breaker, the third
  // death leaves no live worker behind it.
  for (int i = 0; i < 3; ++i)
    session.send(
        inline_select("boom" + std::to_string(i), 3.0, ",\"chaos\":\"abort\""));
  session.send(inline_select("starved"));

  for (int i = 0; i < 3; ++i) {
    const std::string r = session.recv_line();
    EXPECT_NE(r.find("\"code\":\"worker_crashed\""), std::string::npos) << r;
  }
  const std::string rejected = session.recv_line();
  EXPECT_NE(rejected.find("\"code\":\"worker_unavailable\""),
            std::string::npos)
      << rejected;
  EXPECT_NE(rejected.find("\"retry_after_ms\":"), std::string::npos);

  session.send("{\"cmd\":\"stats\"}");
  const std::string stats = session.recv_line();
  EXPECT_GE(json_int_field(stats, "breaker_opens"), 1);
  EXPECT_GE(json_int_field(stats, "breaker_rejected"), 1);
  EXPECT_EQ(session.finish(), 0);
}

// --- one event loop, both dispatch modes -----------------------------------

/// `latency_us.<name>.count` of a stats response.
double stats_latency_count(const std::string& stats, const char* name) {
  const serve::JsonParseResult pr = serve::json_parse(stats);
  if (!pr.ok()) return -1;
  const serve::Json* v = pr.value.find("result");
  for (const char* key : {"latency_us", name, "count"}) {
    if (v == nullptr) return -1;
    v = v->find(key);
  }
  return v != nullptr && v->is_number() ? v->as_number() : -1;
}

class ServeLoopModes : public ::testing::TestWithParam<int> {};

TEST_P(ServeLoopModes, EachResponseRecordedOnceAndInOrder) {
  // The same closed-loop traffic inline (workers 0) and through the pool
  // (workers 2) must come back in order and land in the latency histograms
  // exactly once per response: three solves and one cache hit; the ping is
  // an admin line and stays out of the latency axes.
  serve::ServerOptions so;
  so.workers = GetParam();
  serve::Server server{so};
  PipeSession session(server);

  const std::vector<std::pair<std::string, std::string>> reqs = {
      {"a", inline_select("a", 3.0)},
      {"b", inline_select("b", 2.0)},
      {"c", inline_select("c", 1.0)},
      {"a", inline_select("a", 3.0)},  // byte-identical repeat
      {"p", "{\"id\":\"p\",\"cmd\":\"ping\"}"},
  };
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    session.send(reqs[i].second);
    const std::string line = session.recv_line();
    EXPECT_NE(line.find("\"id\":\"" + reqs[i].first + "\""),
              std::string::npos)
        << "out of order at " << i << ": " << line;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    if (i == 3) {
      EXPECT_NE(line.find("\"cache\":\"hit\""), std::string::npos) << line;
    }
  }

  session.send("{\"id\":\"s\",\"cmd\":\"stats\"}");
  const std::string stats = session.recv_line();
  EXPECT_EQ(stats_latency_count(stats, "total"), 4) << stats;
  EXPECT_EQ(stats_latency_count(stats, "cached"), 1) << stats;
  EXPECT_EQ(session.finish(), 0);
}

INSTANTIATE_TEST_SUITE_P(Workers, ServeLoopModes, ::testing::Values(0, 2));

TEST(SupervisePool, SigtermDrainsCleanly) {
  serve::install_signal_handlers();
  serve::consume_pending_signal();
  robust::clear_global_cancel();

  serve::ServerOptions so;
  so.workers = 2;
  so.drain_timeout_seconds = 5.0;
  serve::Server server{so};
  PipeSession session(server);

  session.send(inline_select("d0"));
  EXPECT_NE(session.recv_line().find("\"ok\":true"), std::string::npos);
  ::raise(SIGTERM);
  // No EOF on stdin: the drain path alone must end the stream.
  EXPECT_EQ(session.join_exit(), 0);
  EXPECT_EQ(serve::consume_pending_signal(), SIGTERM);
  robust::clear_global_cancel();
}

}  // namespace
}  // namespace isex::supervise
