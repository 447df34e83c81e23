#include "isex/serve/traffic.hpp"

#include <vector>

#include "isex/util/json_writer.hpp"

namespace isex::serve {
namespace {

// Cheap kernels only: a soak pushes tens of thousands of requests through
// the real pipeline, and the point is traffic volume, not solver load.
const char* kBenchmarks[] = {"crc32", "sha", "adpcm_enc", "adpcm_dec",
                             "stringsearch"};
constexpr int kNumBenchmarks = 5;

/// `{"id":"t<index>","cmd":` — a request written up to its cmd value.
util::JsonWriter request(int index) {
  util::JsonWriter w;
  w.begin_object().key("id").string("t" + std::to_string(index)).key("cmd");
  return w;
}

std::string valid_select(util::Rng& rng, int index, bool rms_mix) {
  util::JsonWriter w = request(index);
  w.string("select");
  if (rms_mix && rng.chance(0.4)) w.key("policy").string("rms");
  const int n = rng.uniform_int(1, 3);
  w.key("benchmarks").begin_array();
  for (int i = 0; i < n; ++i)
    w.string(kBenchmarks[rng.uniform_int(0, kNumBenchmarks - 1)]);
  // A coarse grid of utilizations/fractions keeps the distinct-request
  // population small enough that repeats and cache hits actually happen.
  // Written as exact decimal literals, not as the nearest double.
  w.end_array().key("u0").raw(std::to_string(rng.uniform_int(10, 20)) + "e-1");
  w.key("budget_fraction").raw("0." + std::to_string(rng.uniform_int(1, 9)));
  return w.key("node_budget").integer(200000).end_object().take();
}

std::string overbudget_select(util::Rng& rng, int index) {
  // Starvation-level budgets: the ladder must truncate or degrade, never
  // wedge. node_budget of a few hundred cannot finish any DP rung.
  util::JsonWriter w = request(index);
  w.string("select");
  w.key("benchmarks").begin_array();
  w.string(kBenchmarks[rng.uniform_int(0, kNumBenchmarks - 1)]);
  w.string(kBenchmarks[rng.uniform_int(0, kNumBenchmarks - 1)]).end_array();
  w.key("u0").raw("1.4").key("budget_fraction").number(0.5);
  w.key("node_budget").integer(rng.uniform_int(64, 512));
  return w.key("time_budget_ms").integer(1).end_object().take();
}

std::string bad_schema(util::Rng& rng, int index) {
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return request(index).string("launch").end_object().take();
    case 1:  // both task-set forms at once
      return "{\"cmd\":\"select\",\"benchmarks\":[\"crc32\"],\"u0\":1.0,"
             "\"tasks\":[],\"budget_fraction\":0.5}";
    case 2:  // utilization out of range
      return "{\"cmd\":\"select\",\"benchmarks\":[\"crc32\"],\"u0\":-3,"
             "\"budget_fraction\":0.5}";
    case 3:  // unknown benchmark
      return "{\"cmd\":\"select\",\"benchmarks\":[\"quicksort9000\"],"
             "\"u0\":1.0,\"budget_fraction\":0.5}";
    case 4:  // id the wrong type
      return "{\"id\":42,\"cmd\":\"ping\"}";
    default:  // missing area constraint
      return "{\"cmd\":\"select\",\"benchmarks\":[\"sha\"],\"u0\":1.0}";
  }
}

std::string malformed(util::Rng& rng, int index) {
  switch (rng.uniform_int(0, 5)) {
    case 0: {  // truncated valid request
      std::string v = valid_select(rng, index, false);
      return v.substr(0, static_cast<std::size_t>(
                             rng.uniform_int(1, static_cast<int>(v.size()) - 1)));
    }
    case 1: {  // single-byte mutation (newline-free so it stays one line)
      std::string v = valid_select(rng, index, false);
      char m = static_cast<char>(rng.uniform_int(0, 255));
      if (m == '\n') m = ' ';
      v[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(v.size()) - 1))] = m;
      return v;
    }
    case 2: {  // deep nesting
      const int depth = rng.uniform_int(50, 120);
      std::string v;
      for (int i = 0; i < depth; ++i) v += "[";
      for (int i = 0; i < depth; ++i) v += "]";
      return v;
    }
    case 3: {  // random bytes (newline-free so it stays one line)
      const int len = rng.uniform_int(1, 200);
      std::string v;
      for (int i = 0; i < len; ++i) {
        char c = static_cast<char>(rng.uniform_int(1, 255));
        if (c == '\n') c = ' ';
        v += c;
      }
      return v;
    }
    case 4:
      return request(index).take();
    default:
      return "nul";  // keyword prefix
  }
}

}  // namespace

std::string make_traffic_line(util::Rng& rng, int index,
                              const TrafficOptions& opts) {
  // Repeats replay an earlier index's request parameters from a derived
  // seed; only the id differs, and the id is not part of the cache key.
  const int roll = rng.uniform_int(0, 99);
  int band = opts.pct_malformed;
  if (roll < band) return malformed(rng, index);
  band += opts.pct_bad_schema;
  if (roll < band) return bad_schema(rng, index);
  band += opts.pct_ping;
  if (roll < band)
    return request(index)
        .string(rng.chance(0.3) ? "stats" : "ping")
        .end_object()
        .take();
  band += opts.pct_overbudget;
  if (roll < band) return overbudget_select(rng, index);
  band += opts.pct_repeat;
  if (roll < band && index > 0) {
    util::Rng replay(static_cast<std::uint64_t>(rng.uniform_int(0, index - 1)) *
                     0x9e3779b97f4a7c15ull);
    return valid_select(replay, index, opts.rms_mix);
  }
  return valid_select(rng, index, opts.rms_mix);
}

}  // namespace isex::serve
