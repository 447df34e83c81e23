// Wire golden: the exact bytes `isex serve` answers with.
//
// tests/data/serve_wire_golden.txt holds one `label<TAB>bytes` line per
// response, recorded from the serve renderers before they moved onto
// util::JsonWriter. It covers EDF and RMS selects (benchmark names, inline
// configs, an inline DFG), a cache hit, budget truncation, both shed rungs,
// every error code, hostile ids (quotes, backslashes, control bytes, escaped
// and invalid UTF-8), ping/stats/introspect, the overload and too_large
// answers of the run() loop, a pool-mode quarantine answer, the structured
// worker-pool errors with their extra fields, and the traffic generator's
// request lines. Any byte that moves fails the test.
//
// Masked, because they are wall-clock measurements or observability state
// rather than wire format: `elapsed_ms`, the values of the stats `latency_us`
// histograms, introspect's `metrics` member (the process-wide metrics
// registry: span timings and the registry report layout) and its
// `journal.head` (the flight-recorder record count, 0 when the recorder is
// compiled out with ISEX_NO_OBS). Traffic lines carry raw bytes, so the file stores them with
// \xNN escapes for bytes outside printable ASCII.
//
// On a mismatch the test writes what it computed to
// serve_wire_golden.actual.txt in its working directory for diff.
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "isex/serve/json.hpp"
#include "isex/serve/protocol.hpp"
#include "isex/serve/server.hpp"
#include "isex/serve/traffic.hpp"
#include "isex/util/json_writer.hpp"
#include "isex/util/rng.hpp"
#include "isex/util/task_pool.hpp"

namespace isex::serve {
namespace {

/// The end of the JSON value starting at s[i] (an object, array, string or
/// scalar), skipping over string contents.
std::size_t value_end(const std::string& s, std::size_t i) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t j = i; j < s.size(); ++j) {
    const char c = s[j];
    if (in_string) {
      if (c == '\\') {
        ++j;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return j + 1;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) return j;
      if (--depth == 0) return j + 1;
    } else if (c == ',' && depth == 0) {
      return j;
    }
  }
  return s.size();
}

/// `v` with every number outside string literals replaced by `#`.
std::string mask_numbers(const std::string& v) {
  std::string out;
  bool in_string = false;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const char c = v[i];
    if (in_string) {
      out += c;
      if (c == '\\') out += v[++i];
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
      out += c;
    } else if ((c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' ||
               c == 'e' || c == 'E') {
      if (out.empty() || out.back() != '#') out += '#';
    } else {
      out += c;
    }
  }
  return out;
}

/// Applies `f` to the value of every `"key":` member in `s`.
template <class F>
void replace_values(std::string& s, const std::string& key, F f) {
  const std::string tok = "\"" + key + "\":";
  for (std::size_t p = s.find(tok); p != std::string::npos;) {
    const std::size_t b = p + tok.size();
    const std::size_t e = value_end(s, b);
    const std::string v = f(s.substr(b, e - b));
    s.replace(b, e - b, v);
    p = s.find(tok, b + v.size());
  }
}

std::string masked(std::string s) {
  const auto hide = [](const std::string&) { return std::string("#"); };
  replace_values(s, "elapsed_ms", hide);
  replace_values(s, "metrics", hide);
  replace_values(s, "head", hide);
  replace_values(s, "latency_us", mask_numbers);
  return s;
}

/// Printable ASCII kept, everything else as \xNN (and backslash as \x5c).
std::string escape_bytes(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out += ch;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

using Golden = std::vector<std::pair<std::string, std::string>>;

void add(Golden& g, const std::string& label, const std::string& response) {
  // The wire promise: every response re-parses under the strict parser.
  EXPECT_TRUE(json_parse(response).ok()) << label << ": " << response;
  g.emplace_back(label, escape_bytes(masked(response)));
}

ServerOptions golden_options() {
  ServerOptions so;
  so.default_time_budget_seconds = 0;  // node budgets only: deterministic
  so.limits.max_request_bytes = 8192;
  return so;
}

const std::string kInlineEdf =
    "\"tasks\":[{\"name\":\"t0\",\"period\":100,\"configs\":[[0,50],[2,25]]},"
    "{\"name\":\"t1\",\"period\":200,\"configs\":[[0,80],[1,60],[3,40]]}],"
    "\"area_budget\":3";
const std::string kInlineDfg =
    "\"tasks\":[{\"name\":\"k\",\"period\":400,\"dfg\":["
    "{\"op\":\"input\",\"in\":[]},{\"op\":\"input\",\"in\":[]},"
    "{\"op\":\"add\",\"in\":[0,1]},{\"op\":\"xor\",\"in\":[2,0]},"
    "{\"op\":\"shl\",\"in\":[3,1]},{\"op\":\"and\",\"in\":[4,2]},"
    "{\"op\":\"sub\",\"in\":[5,3],\"out\":true}]},"
    "{\"name\":\"c\",\"period\":900,\"configs\":[[0,300],[4,200]]}],"
    "\"budget_fraction\":0.6";

void in_process(Golden& g) {
  Server server(golden_options());
  const std::string bench_edf =
      "\"cmd\":\"select\",\"benchmarks\":[\"crc32\",\"sha\"],\"u0\":1.2,"
      "\"budget_fraction\":0.5}";
  const std::vector<std::tuple<std::string, int, std::string>> lines = {
      {"ping", 0, "{\"id\":\"p1\",\"cmd\":\"ping\"}"},
      {"ping_no_id", 0, "{\"cmd\":\"ping\"}"},
      {"edf_bench", 0, "{\"id\":\"edf-bench\"," + bench_edf},
      {"rms_bench", 0,
       "{\"id\":\"rms-bench\",\"cmd\":\"select\",\"policy\":\"rms\","
       "\"benchmarks\":[\"crc32\",\"adpcm_enc\"],\"u0\":1.1,"
       "\"budget_fraction\":0.4}"},
      {"edf_inline", 0, "{\"id\":\"edf-inline\",\"cmd\":\"select\"," +
                            kInlineEdf + ",\"node_budget\":50000}"},
      {"rms_inline_dfg", 0,
       "{\"id\":\"rms-dfg\",\"cmd\":\"select\",\"policy\":\"rms\"," +
           kInlineDfg + "}"},
      {"cache_hit", 0, "{\"id\":\"edf-bench-again\"," + bench_edf},
      {"truncated", 0,
       "{\"id\":\"tight\",\"cmd\":\"select\",\"policy\":\"rms\","
       "\"benchmarks\":[\"crc32\",\"sha\",\"adpcm_dec\"],\"u0\":1.4,"
       "\"budget_fraction\":0.5,\"node_budget\":3}"},
      {"shed1", 20, "{\"id\":\"shed1\",\"cmd\":\"select\"," + kInlineEdf +
                        "}"},
      {"shed2", 40, "{\"id\":\"shed2\",\"cmd\":\"select\",\"policy\":\"rms\","
                        + kInlineEdf + "}"},
      {"paranoid", 0, "{\"id\":\"para\",\"cmd\":\"select\",\"paranoid\":true,"
                          + kInlineEdf + ",\"area_budget\":1}"},
      {"parse_error", 0, "{\"id\":\"x\",\"cmd\":"},
      {"parse_error_utf8", 0, "{\"id\":\"\xff\xfe\",\"cmd\":\"ping\"}"},
      {"bad_request_cmd", 0, "{\"id\":\"c\",\"cmd\":\"la\\\"unch\\u0002\"}"},
      {"bad_request_id_type", 0, "{\"id\":42,\"cmd\":\"ping\"}"},
      {"bad_request_benchmark", 0,
       "{\"id\":\"b\",\"cmd\":\"select\",\"benchmarks\":[\"quick\\\"sort\"],"
       "\"u0\":1.0,\"budget_fraction\":0.5}"},
      {"bad_request_budget", 0,
       "{\"cmd\":\"select\",\"benchmarks\":[\"sha\"],\"u0\":1.0}"},
      {"bad_request_dfg", 0,
       "{\"id\":\"d\",\"cmd\":\"select\",\"area_budget\":2,\"tasks\":["
       "{\"name\":\"t\",\"period\":9,\"dfg\":[{\"op\":\"not\",\"in\":[1]},"
       "{\"op\":\"input\",\"in\":[]}]}]}"},
      {"bad_request_taskset", 0,
       "{\"id\":\"v\",\"cmd\":\"select\",\"area_budget\":2,\"tasks\":["
       "{\"name\":\"t\",\"period\":9,\"configs\":[[1,5]]}]}"},
      {"too_large_decode", 0,
       "{\"id\":\"big\",\"cmd\":\"ping\",\"pad\":\"" + std::string(9000, 'x') +
           "\"}"},
      {"hostile_id", 0,
       "{\"id\":\"q\\\"uote\\\\back\\/sl\\u0001\\u001f\\n\\t\\b\\f\\r\\u007f"
       "\\u00e9\\ud83d\\ude00\xe2\x82\xac\",\"cmd\":\"ping\"}"},
      {"hostile_id_error", 0,
       "{\"id\":\"\\u0000nul\\\"\",\"cmd\":\"select\"}"},
      {"stats", 0, "{\"id\":\"s\",\"cmd\":\"stats\"}"},
      {"introspect", 0, "{\"id\":\"i\",\"cmd\":\"introspect\"}"},
  };
  for (const auto& [label, depth, line] : lines)
    add(g, label, server.handle_line(line, depth));
}

/// Feeds `input` through Server::run over pipes and returns the response
/// lines. The writer thread closes stdin when done; run() returns at EOF.
std::vector<std::string> run_session(Server& server, const std::string& input) {
  int in[2], out[2];
  EXPECT_EQ(::pipe(in), 0);
  EXPECT_EQ(::pipe(out), 0);
  std::thread writer([&] {
    std::size_t off = 0;
    while (off < input.size()) {
      const ssize_t n = ::write(in[1], input.data() + off, input.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(in[1]);
  });
  std::string blob;
  std::thread reader([&] {
    char buf[4096];
    for (ssize_t n; (n = ::read(out[0], buf, sizeof buf)) > 0;)
      blob.append(buf, static_cast<std::size_t>(n));
  });
  EXPECT_EQ(server.run(in[0], out[1]), 0);
  ::close(out[1]);
  writer.join();
  reader.join();
  ::close(in[0]);
  ::close(out[0]);
  std::vector<std::string> lines;
  std::istringstream is(blob);
  for (std::string l; std::getline(is, l);) lines.push_back(l);
  return lines;
}

void run_loop(Golden& g) {
  {
    // Admission: the whole burst is read before the first solve, so the
    // lines past queue_capacity are rejected with the overload answer.
    ServerOptions so = golden_options();
    so.queue_capacity = 2;
    std::string input;
    for (int i = 0; i < 5; ++i)
      input += "{\"id\":\"o" + std::to_string(i) + "\",\"cmd\":\"ping\"}\n";
    ASSERT_LT(input.size(), 4096u);  // fits one pipe write and one read
    Server server(so);
    int in[2], out[2];
    ASSERT_EQ(::pipe(in), 0);
    ASSERT_EQ(::pipe(out), 0);
    ASSERT_EQ(::write(in[1], input.data(), input.size()),
              static_cast<ssize_t>(input.size()));
    ::close(in[1]);
    ASSERT_EQ(server.run(in[0], out[1]), 0);
    ::close(out[1]);
    ::close(in[0]);
    std::string blob;
    char buf[4096];
    for (ssize_t n; (n = ::read(out[0], buf, sizeof buf)) > 0;)
      blob.append(buf, static_cast<std::size_t>(n));
    ::close(out[0]);
    std::istringstream is(blob);
    int i = 0;
    for (std::string l; std::getline(is, l); ++i)
      add(g, "overload_burst_" + std::to_string(i), l);
    EXPECT_EQ(i, 5);
  }
  {
    // A line longer than one read is discarded as it streams in and
    // answered by the loop's own too_large tombstone.
    Server server(golden_options());
    const auto lines = run_session(
        server, std::string(100'000, 'x') + "\n{\"id\":\"after\",\"cmd\":"
                                           "\"ping\"}\n");
    ASSERT_EQ(lines.size(), 2u);
    add(g, "too_large_stream", lines[0]);
    add(g, "after_too_large", lines[1]);
  }
}

/// Pool mode: a line that kills every worker it reaches is quarantined; the
/// same bytes sent again get the structured quarantine answer up front.
void pool_mode(Golden& g) {
  ServerOptions so = golden_options();
  so.workers = 2;
  so.poison_kill_threshold = 2;
  so.chaos_probability = 1e-9;  // markers honored, dice ~never fire
  Server server(so);
  int in[2], out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  int rc = -1;
  std::thread th([&] {
    rc = server.run(in[0], out[1]);
    ::close(out[1]);
    ::close(in[0]);
  });
  std::string buf;
  const auto exchange = [&](const std::string& line) {
    const std::string l = line + "\n";
    EXPECT_EQ(::write(in[1], l.data(), l.size()),
              static_cast<ssize_t>(l.size()));
    for (;;) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        std::string r = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return r;
      }
      struct pollfd pfd {out[0], POLLIN, 0};
      if (::poll(&pfd, 1, 20000) <= 0) return std::string("timeout");
      char tmp[4096];
      const ssize_t n = ::read(out[0], tmp, sizeof tmp);
      if (n <= 0) return std::string("closed");
      buf.append(tmp, static_cast<std::size_t>(n));
    }
  };
  const std::string poison = "{\"id\":\"poison\",\"cmd\":\"select\"," +
                             kInlineEdf + ",\"chaos\":\"abort\"}";
  // The first answer names the dead worker's pid: checked, not recorded.
  const std::string crashed = exchange(poison);
  EXPECT_NE(crashed.find("\"code\":\"worker_crashed\""), std::string::npos)
      << crashed;
  add(g, "pool_quarantined", exchange(poison));
  add(g, "pool_after", exchange("{\"id\":\"after\",\"cmd\":\"select\"," +
                                kInlineEdf + "}"));
  ::close(in[1]);
  th.join();
  ::close(out[0]);
  EXPECT_EQ(rc, 0);
}

/// The renderers called directly: every error code, retry hints, and the
/// ids and messages the wire can never deliver (invalid UTF-8, NUL).
void renderers(Golden& g) {
  const std::string bad_utf8 = std::string("bad\xff\xc0\xafz\xe2\x82") +
                               std::string("\x00\x1b", 2) + "\xed\xa0\x80" +
                               "\xf4\x90\x80\x80" + "ok\xc3\xa9";
  const ErrorCode codes[] = {
      ErrorCode::kParseError,    ErrorCode::kBadRequest,
      ErrorCode::kTooLarge,      ErrorCode::kOverload,
      ErrorCode::kShuttingDown,  ErrorCode::kInternal,
      ErrorCode::kWorkerCrashed, ErrorCode::kWorkerTimeout,
      ErrorCode::kQuarantined,   ErrorCode::kWorkerUnavailable};
  long retry = -1;
  std::uint64_t rid = 0;
  for (const ErrorCode c : codes) {
    add(g, std::string("error_") + to_string(c),
        render_error("e\"1", c, "message for " + std::string(to_string(c)),
                     retry, rid));
    retry = retry < 0 ? 0 : retry * 7 + 3;
    rid = rid * 31 + 17;
  }
  add(g, "error_bad_utf8", render_error(bad_utf8, ErrorCode::kInternal,
                                        bad_utf8, 12, 99));
  add(g, "error_no_id", render_error("", ErrorCode::kBadRequest, "", -1, 0));
  add(g, "success_bad_utf8",
      render_success(bad_utf8, "{\"cmd\":\"ping\"}", true, 3, 1.5, 42, 7));
  add(g, "success_no_rid",
      render_success("", "{}", false, 0, 0.0, 0, 0));
  add(g, "worker_crashed_extra",
      render_error(
          "w", ErrorCode::kWorkerCrashed,
          "worker pid 4242 died with signal 11 while solving this request",
          -1, 5, [](util::JsonWriter& w) {
            w.key("signal").integer(11).key("worker").integer(1);
            w.key("kills").integer(1).key("crash_dump").string(
                "/tmp/isex \"dump\".4242");
          }));
  add(g, "worker_timeout_extra",
      render_error("w2", ErrorCode::kWorkerTimeout,
                   "solve exceeded its watchdog deadline (1.000000s + grace); "
                   "worker killed",
                   -1, 6, [](util::JsonWriter& w) {
                     w.key("signal").integer(9).key("worker").integer(0);
                     w.key("kills").integer(2);
                   }));
}

void traffic(Golden& g) {
  for (const bool rms : {false, true}) {
    util::Rng rng(rms ? 11 : 7);
    TrafficOptions opts;
    opts.rms_mix = rms;
    for (int i = 0; i < 150; ++i)
      g.emplace_back("traffic_" + std::string(rms ? "rms_" : "") +
                         std::to_string(i),
                     escape_bytes(make_traffic_line(rng, i, opts)));
  }
}

TEST(ServeWireGolden, ResponsesAndTrafficAreByteIdentical) {
  util::set_max_threads(1);  // node counts are defined at one thread
  Golden g;
  in_process(g);
  run_loop(g);
  pool_mode(g);
  renderers(g);
  traffic(g);
  util::set_max_threads(0);

  std::ostringstream actual;
  for (const auto& [label, text] : g) actual << label << '\t' << text << '\n';
  std::ifstream f(std::string(ISEX_TEST_DATA_DIR) + "/serve_wire_golden.txt",
                  std::ios::binary);
  std::stringstream expected;
  expected << f.rdbuf();
  if (actual.str() != expected.str()) {
    std::ofstream("serve_wire_golden.actual.txt", std::ios::binary)
        << actual.str();
    // Point at the first differing line.
    std::istringstream a(actual.str()), e(expected.str());
    std::string la, le;
    int n = 1;
    while (std::getline(a, la) && std::getline(e, le) && la == le) ++n;
    ADD_FAILURE() << "wire bytes differ at line " << n << "\n  expected: "
                  << le << "\n  actual:   " << la
                  << "\n(full output in serve_wire_golden.actual.txt)";
  }
}

}  // namespace
}  // namespace isex::serve
