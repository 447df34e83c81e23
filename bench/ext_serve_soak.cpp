// Extension: serve-daemon soak — sustained mixed traffic, measured.
//
// Runs the full isex::serve daemon in-process over real pipes, pushes a
// seeded 10k+ request stream spanning every traffic class (valid selects,
// repeats, over-budget, malformed, wrong-schema, pings) through it with
// concurrent writer/reader threads, and checks the hardened-service
// contract on the way out:
//   * one response line per request line, every one of them well-formed
//     JSON with a definite verdict — zero crashes, zero dropped requests;
//   * under overload the daemon sheds or degrades, never queues without
//     bound: the shed/degrade/overload counters must be nonzero, and no
//     response may take unbounded solver work;
//   * successful selects carry passing certificates; cache hits replay
//     byte-identical result objects.
// Emits BENCH_serve.json (throughput plus p50/p90/p99 per-request latency
// measured at the client side) for the CI artifact upload, and exits
// nonzero on any violated check — the CI serve-soak gate.
//
// With --workers N the soak drives the crash-isolated pool instead of the
// in-process loop, and --chaos p makes each worker sabotage that fraction
// of requests (abort/segv/hang/leak; see isex/supervise/chaos.hpp). Chaos
// decisions are a pure function of the request bytes, so the harness
// recomputes them client-side and checks the supervision contract:
//   * the supervisor survives every worker death (zero supervisor exits,
//     one response per request, all in order);
//   * every response to a *non-chaotic* request carries a result object
//     byte-identical to what a --workers 0 server produces for the same
//     bytes — crash isolation never changes an answer;
//   * crash/respawn/watchdog/quarantine counters and per-worker throughput
//     land in the BENCH json for the CI gates.
//
// Usage: ext_serve_soak [requests] [seed] [-o BENCH_serve.json]
//                       [--workers N] [--chaos p] [--chaos-seed S]
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "isex/obs/provenance.hpp"
#include "isex/obs/trace.hpp"
#include "isex/serve/json.hpp"
#include "isex/serve/server.hpp"
#include "isex/serve/traffic.hpp"
#include "isex/supervise/chaos.hpp"
#include "isex/util/rng.hpp"
#include "isex/workloads/tasks.hpp"

using namespace isex;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "SOAK FAIL: %s\n", what);
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1));
  return v[i];
}

// Response classes mirroring obs::Disposition, reconstructed client-side
// from the parsed response (the same precedence the server uses when it
// journals kResponse: cache hit, then shed, then non-Exact status).
constexpr const char* kDispositions[] = {"exact", "degraded", "shed", "cached",
                                         "error"};

bool is_string(const serve::Json* v, std::string_view s) {
  return v != nullptr && v->is_string() && v->as_string() == s;
}

/// What one parsed response says about how it was answered.
struct Verdict {
  bool ok = false, cache_hit = false, shed = false, degraded = false;
  std::string code;  // error code; "" on success

  explicit Verdict(const serve::Json& v) {
    const serve::Json* okf = v.find("ok");
    ok = okf != nullptr && okf->is_bool() && okf->as_bool();
    cache_hit = is_string(v.find("cache"), "hit");
    if (const serve::Json* r = v.find("result"); r != nullptr) {
      const serve::Json* rung = r->find("shed_rung");
      shed = rung != nullptr && rung->is_number() && rung->as_number() >= 1;
      degraded = is_string(r->find("status"), "Degraded") ||
                 is_string(r->find("status"), "BudgetTruncated");
    }
    const serve::Json* e = v.find("error");
    const serve::Json* c = e != nullptr ? e->find("code") : nullptr;
    if (c != nullptr && c->is_string()) code = c->as_string();
  }

  int disposition() const {
    if (!ok) return 4;
    if (cache_hit) return 3;
    if (shed) return 2;
    return degraded ? 1 : 0;
  }
};

void write_latency_block(util::JsonWriter& w, std::vector<double>& v) {
  w.begin_object().key("count").integer(v.size());
  w.key("p50").number(percentile(v, 0.50));
  w.key("p90").number(percentile(v, 0.90));
  w.key("p99").number(percentile(v, 0.99)).end_object();
}

/// The stable `result` object tail of a success envelope ("" when absent).
std::string result_tail(const std::string& s) {
  const std::size_t p = s.find("\"result\":");
  return p == std::string::npos ? std::string() : s.substr(p);
}

}  // namespace

int main(int argc, char** argv) {
  long requests = 10000;
  unsigned long long seed = 20070613;
  std::string out_path = "BENCH_serve.json";
  int workers = 0;
  double chaos = 0;
  unsigned long long chaos_seed = 20070613;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc)
      out_path = argv[++i];
    else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc)
      workers = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--chaos") == 0 && i + 1 < argc)
      chaos = std::atof(argv[++i]);
    else if (std::strcmp(argv[i], "--chaos-seed") == 0 && i + 1 < argc)
      chaos_seed = std::strtoull(argv[++i], nullptr, 10);
    else if (++positional == 1)
      requests = std::max(1L, std::atol(argv[i]));
    else
      seed = std::strtoull(argv[i], nullptr, 10);
  }

  // Warm the benchmark curve cache so the soak measures serving, not the
  // one-time curve construction of the five small kernels. With workers the
  // warm curves are inherited copy-on-write by every forked worker.
  for (const char* b : {"crc32", "sha", "adpcm_enc", "adpcm_dec",
                        "stringsearch"})
    workloads::cached_task(b);

  // A small queue with aggressive shedding thresholds guarantees the
  // overload machinery actually engages under the full-speed pipe writer.
  serve::ServerOptions so;
  so.queue_capacity = 16;
  so.shed1_depth = 4;
  so.shed2_depth = 8;
  so.default_time_budget_seconds = 0.5;
  so.default_node_budget = 500'000;
  if (workers > 0) {
    // Pool mode trades the overload experiment for a determinism one: the
    // byte-identity check below needs every request answered from shed rung
    // 0 with no admission rejects and no wall-clock truncation (node budgets
    // stay, they are deterministic). Hangs must cost a bounded watchdog
    // deadline, not the 0.5s default budget times a retry.
    so.workers = workers;
    so.chaos_probability = chaos;
    so.chaos_seed = chaos_seed;
    so.queue_capacity = static_cast<int>(
        std::min<long>(requests, 1'000'000));
    so.shed1_depth = INT_MAX / 4;
    so.shed2_depth = INT_MAX / 2;
    so.default_time_budget_seconds = 5.0;
    so.watchdog_seconds = 1.0;
    so.watchdog_grace_seconds = 0.5;
    // A 5% chaos stream IS a restart storm; the breaker (its own unit- and
    // lifecycle-tested path) would open immediately and turn the rest of the
    // run into fast-fails. The soak measures survival-under-churn instead.
    so.breaker_max_respawns = INT_MAX / 2;
  }
  serve::Server server(so);

  int in[2], out[2];
  if (::pipe(in) != 0 || ::pipe(out) != 0) {
    std::fprintf(stderr, "pipe() failed\n");
    return 1;
  }

  util::Rng rng(seed);
  serve::TrafficOptions topts;
  std::thread writer([&] {
    for (long i = 0; i < requests; ++i) {
      std::string line =
          serve::make_traffic_line(rng, static_cast<int>(i), topts);
      line += '\n';
      std::size_t off = 0;
      while (off < line.size()) {
        const ssize_t n =
            ::write(in[1], line.data() + off, line.size() - off);
        if (n <= 0) return;
        off += static_cast<std::size_t>(n);
      }
    }
    ::close(in[1]);
  });

  std::string blob;
  std::vector<double> latencies_ms;  // client-observed inter-response gaps
  std::thread reader([&] {
    char buf[1 << 16];
    std::int64_t last = obs::clock_ns();
    for (;;) {
      const ssize_t n = ::read(out[0], buf, sizeof buf);
      if (n <= 0) break;
      const std::int64_t now = obs::clock_ns();
      for (ssize_t k = 0; k < n; ++k)
        if (buf[k] == '\n') {
          latencies_ms.push_back(static_cast<double>(now - last) / 1e6);
          last = now;
        }
      blob.append(buf, static_cast<std::size_t>(n));
    }
  });

  const std::int64_t t0 = obs::clock_ns();
  const int rc = server.run(in[0], out[1]);
  const double elapsed_s = static_cast<double>(obs::clock_ns() - t0) / 1e9;
  ::close(out[1]);
  ::close(in[0]);
  writer.join();
  reader.join();
  ::close(out[0]);

  check(rc == 0, "server.run returned nonzero");

  // One well-formed verdict per request, in order.
  long lines = 0, ok_lines = 0, err_lines = 0, shed = 0, degraded = 0,
       overload = 0, cache_hits = 0;
  std::vector<double> lat_by_class[5];  // indexed like kDispositions
  std::size_t start = 0;
  while (start < blob.size()) {
    std::size_t nl = blob.find('\n', start);
    if (nl == std::string::npos) nl = blob.size();
    const std::string line = blob.substr(start, nl - start);
    start = nl + 1;
    ++lines;
    const serve::JsonParseResult parsed = serve::json_parse(line);
    if (!parsed.ok()) {
      check(false, "response is not well-formed JSON");
      continue;
    }
    const serve::Json* okf = parsed.value.find("ok");
    if (okf == nullptr || !okf->is_bool()) {
      check(false, "response lacks an ok verdict");
      continue;
    }
    const Verdict v(parsed.value);
    if (v.ok) ++ok_lines; else ++err_lines;
    shed += v.shed;
    degraded += v.degraded;
    overload += v.code == "overload";
    cache_hits += v.cache_hit;
    const std::size_t li = static_cast<std::size_t>(lines - 1);
    if (li < latencies_ms.size())
      lat_by_class[v.disposition()].push_back(latencies_ms[li]);
  }
  check(lines == requests, "response count != request count");
  check(ok_lines > 0, "no successful responses at all");
  check(err_lines > 0, "no error responses on a hostile stream");
  if (workers == 0) {
    // The overload machinery must have engaged: shed rungs, degraded
    // results, or admission rejections (a fast machine may clear the queue
    // via any mix). Pool mode configures overload away (see above).
    check(shed + overload + degraded > 0,
          "no shedding/degradation/overload under a full-speed stream");
  }
  check(server.stats().internal_errors == 0, "internal errors during soak");

  // Pool mode: replay the generator (same seed -> same bytes) to check
  // response ordering and non-chaotic byte identity against a --workers 0
  // reference server running the exact same configuration.
  long chaotic_requests = 0, byte_mismatches = 0, compared = 0,
       collateral_errors = 0;
  if (workers > 0) {
    serve::ServerOptions ref_so = so;
    ref_so.workers = 0;
    ref_so.chaos_probability = 0;
    serve::Server reference(ref_so);
    util::Rng rng2(seed);
    std::vector<std::string> responses;
    responses.reserve(static_cast<std::size_t>(lines));
    std::size_t rstart = 0;
    while (rstart < blob.size()) {
      std::size_t nl = blob.find('\n', rstart);
      if (nl == std::string::npos) nl = blob.size();
      responses.push_back(blob.substr(rstart, nl - rstart));
      rstart = nl + 1;
    }
    for (long i = 0; i < requests &&
                     i < static_cast<long>(responses.size()); ++i) {
      const std::string req =
          serve::make_traffic_line(rng2, static_cast<int>(i), topts);
      const std::string& resp = responses[static_cast<std::size_t>(i)];
      const serve::JsonParseResult parsed = serve::json_parse(resp);
      const std::string id = "t" + std::to_string(i);
      // In-order contract: response i answers request i, checkable whenever
      // the request parses (the malformed band still *contains* the id bytes
      // but is correctly answered with "id":null) and carried its index.
      const serve::JsonParseResult req_parsed = serve::json_parse(req);
      if (req_parsed.ok() && is_string(req_parsed.value.find("id"), id) &&
          !is_string(parsed.value.find("id"), id)) {
        check(false, "response out of order (id mismatch at index)");
        static int shown = 0;
        if (++shown <= 3)
          std::fprintf(stderr, "ORDER MISMATCH at %ld:\n  req:  %.200s\n  resp: %.200s\n",
                       i, req.c_str(), resp.c_str());
        continue;
      }
      const supervise::ChaosKind kind =
          supervise::chaos_decision(req, chaos, chaos_seed);
      if (kind != supervise::ChaosKind::kNone) {
        ++chaotic_requests;
        continue;
      }
      // Identity is only defined for deterministic solves: admin commands
      // (stats counters differ by construction) and over-budget traffic
      // (wall-clock truncation is timing-dependent by design) are out.
      if (!is_string(req_parsed.value.find("cmd"), "select")) continue;
      if (req_parsed.value.find("time_budget_ms") != nullptr) continue;
      const std::string tail = result_tail(resp);
      if (tail.empty()) {
        // Innocent request without a result object: either a legitimate
        // error (malformed/bad schema — the reference answers the same
        // class) or a collateral worker death. Count the latter.
        const std::string code = Verdict(parsed.value).code;
        if (code.rfind("worker_", 0) == 0 || code == "quarantined")
          ++collateral_errors;
        continue;
      }
      const std::string ref_tail = result_tail(reference.handle_line(req));
      ++compared;
      if (tail != ref_tail) {
        ++byte_mismatches;
        if (byte_mismatches <= 3)
          std::fprintf(stderr, "BYTE MISMATCH at %ld:\n  pool: %s\n  ref:  %s\n",
                       i, tail.c_str(), ref_tail.c_str());
      }
    }
    check(byte_mismatches == 0,
          "pool results diverge from the single-process server");
    check(compared > 0, "byte-identity check compared nothing");
    if (chaos > 0) {
      check(chaotic_requests > 0, "chaos enabled but nothing was injected");
      check(server.stats().worker_crashes > 0,
            "chaos enabled but no worker ever crashed");
      check(server.stats().worker_respawns > 0,
            "workers crashed but none were respawned");
    }
  }

  const double throughput =
      elapsed_s > 0 ? static_cast<double>(lines) / elapsed_s : 0;
  const double p50 = percentile(latencies_ms, 0.50);
  const double p90 = percentile(latencies_ms, 0.90);
  const double p99 = percentile(latencies_ms, 0.99);

  std::printf(
      "soak: %ld requests in %.2fs (%.0f req/s), %ld ok / %ld err, "
      "%ld shed, %ld degraded, %ld overload-rejected, %ld cache hits\n"
      "inter-response latency p50 %.3fms p90 %.3fms p99 %.3fms\n",
      lines, elapsed_s, throughput, ok_lines, err_lines, shed, degraded,
      overload, cache_hits, p50, p90, p99);
  if (workers > 0) {
    const auto& st = server.stats();
    std::printf(
        "pool: %d workers, %ld chaotic requests, %llu crashes, %llu timeouts, "
        "%llu respawns, %llu retried, %llu quarantined, %llu breaker opens; "
        "byte identity: %ld compared, %ld mismatches, %ld collateral "
        "errors\n",
        workers, chaotic_requests,
        static_cast<unsigned long long>(st.worker_crashes),
        static_cast<unsigned long long>(st.worker_timeouts),
        static_cast<unsigned long long>(st.worker_respawns),
        static_cast<unsigned long long>(st.requests_retried),
        static_cast<unsigned long long>(st.quarantined),
        static_cast<unsigned long long>(st.breaker_opens), compared,
        byte_mismatches, collateral_errors);
  }

  const auto& st = server.stats();
  util::JsonWriter w;
  obs::write_provenance_json(w.begin_object().key("provenance"),
                             obs::collect_provenance());
  w.key("requests").integer(lines).key("elapsed_seconds").number(elapsed_s);
  w.key("throughput_rps").number(throughput);
  w.key("ok").integer(ok_lines).key("errors").integer(err_lines);
  w.key("shed_responses").integer(shed);
  w.key("degraded_responses").integer(degraded);
  w.key("overload_rejected").integer(overload);
  w.key("cache_hits").integer(cache_hits).key("accepted").integer(st.accepted);
  w.key("parse_errors").integer(st.parse_errors);
  w.key("bad_requests").integer(st.bad_requests);
  w.key("solved").integer(st.solved);
  w.key("internal_errors").integer(st.internal_errors);
  w.key("latency_ms").begin_object().key("p50").number(p50);
  w.key("p90").number(p90).key("p99").number(p99).end_object();
  w.key("latency_by_disposition").begin_object();
  for (int c = 0; c < 5; ++c)
    write_latency_block(w.key(kDispositions[c]), lat_by_class[c]);
  w.end_object();
  if (workers > 0) {
    // The supervision scorecard for the CI chaos gates, plus the live
    // worker_pool introspection object (per-worker handled counts give
    // per-worker throughput against elapsed_seconds).
    w.key("workers").begin_object().key("configured").integer(workers);
    w.key("chaos_probability").number(chaos);
    w.key("chaos_seed").integer(chaos_seed).key("traffic_seed").integer(seed);
    w.key("chaotic_requests").integer(chaotic_requests);
    w.key("dispatched").integer(st.dispatched);
    w.key("crashes").integer(st.worker_crashes);
    w.key("timeouts").integer(st.worker_timeouts);
    w.key("respawns").integer(st.worker_respawns);
    w.key("retried").integer(st.requests_retried);
    w.key("quarantined").integer(st.quarantined);
    w.key("quarantine_hits").integer(st.quarantine_hits);
    w.key("breaker_opens").integer(st.breaker_opens);
    w.key("breaker_rejected").integer(st.breaker_rejected);
    w.key("collateral_errors").integer(collateral_errors);
    w.key("byte_checked").integer(compared);
    w.key("byte_mismatches").integer(byte_mismatches);
    server.write_worker_pool(w.key("pool"));
    w.end_object();
  }
  w.key("failures").integer(g_failures).end_object();
  std::ofstream(out_path) << w.str() << '\n';

  if (g_failures > 0)
    std::fprintf(stderr, "soak: %d failed checks\n", g_failures);
  return g_failures;
}
