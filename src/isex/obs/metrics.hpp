// isex::obs — process-wide metrics registry.
//
// Named counters, gauges and fixed-bucket histograms with an O(1) hot path:
// call sites resolve the name once (function-local static) and then touch a
// single cache-line-padded relaxed atomic per hit. Instrumentation sites use
// the ISEX_COUNT / ISEX_HIST / ISEX_GAUGE_SET macros below; when ISEX_NO_OBS
// is defined those macros expand to `((void)0)` and the instrumented code
// compiles to exactly the uninstrumented algorithms. The macro switch never
// changes any class or inline-function definition, so translation units built
// with and without ISEX_NO_OBS link together safely (the tests rely on this).
//
// Naming convention (see DESIGN.md): `<module>.<subject>.<what>` with dots,
// e.g. "ise.enum.candidates", "customize.rms.bound_pruned", "rt.sim.preemptions".
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "isex/util/json_writer.hpp"

namespace isex::obs {

/// Monotonically increasing event count. Padded so two counters never share a
/// cache line (independent hot loops must not false-share).
class alignas(64) Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written instantaneous value (e.g. a table width, a queue depth).
class alignas(64) Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double get() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram over non-negative integer samples. The default
/// bucketing is powers of two (bucket k counts samples with bit_width == k,
/// i.e. upper bounds 0,1,3,7,...), giving an O(1) branch-free record();
/// explicit ascending upper bounds are supported for calibrated axes.
class Histogram {
 public:
  /// Power-of-two buckets covering the full non-negative int64 range.
  Histogram();
  /// Explicit ascending inclusive upper bounds; samples above the last bound
  /// land in an implicit overflow bucket.
  explicit Histogram(std::vector<std::int64_t> bounds);

  void record(std::int64_t value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t min() const { return min_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }

  struct Bucket {
    std::int64_t upper_bound;  // inclusive; INT64_MAX = overflow bucket
    std::uint64_t count;
  };
  /// Non-empty buckets only, ascending by bound.
  std::vector<Bucket> buckets() const;

  void reset();

 private:
  static constexpr int kPow2Buckets = 65;  // bit_width(v) in [0, 64]

  std::vector<std::int64_t> bounds_;  // empty = power-of-two mode
  std::size_t num_slots_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{INT64_MIN};
};

/// Process-wide named metric registry. Creation takes a mutex; the returned
/// references are stable for the process lifetime, so call sites cache them
/// (the ISEX_COUNT family does this automatically) and the steady-state cost
/// is one relaxed atomic op.
class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Power-of-two-bucket histogram (the first registration wins; subsequent
  /// calls with the same name return the existing instance).
  Histogram& histogram(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<std::int64_t> bounds);

  /// Zeroes every metric (instances stay registered and references valid).
  void reset();

  struct HistogramSnapshot {
    std::uint64_t count = 0;
    std::int64_t sum = 0, min = 0, max = 0;
    std::vector<Histogram::Bucket> buckets;
  };
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  Snapshot snapshot() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}} — stable key order.
  void write_json(util::JsonWriter& w) const;
  /// Flat `kind,name,value` CSV (histograms expand one row per statistic).
  void write_csv(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Estimates the q-quantile (q in [0,1]) of a histogram snapshot by linear
/// interpolation inside the winning bucket, clamped to the recorded
/// [min, max]. Returns 0 for an empty histogram. Exact-bucket axes (pow2
/// microsecond latencies) give p50/p95/p99 good to the bucket resolution —
/// fine for operator dashboards, not for benchmarking claims.
double histogram_quantile(const Registry::HistogramSnapshot& h, double q);

}  // namespace isex::obs

// --- instrumentation macros --------------------------------------------------
//
// `name` must be a string literal (or at least outlive the process); the
// metric is resolved once per call site.
#ifndef ISEX_NO_OBS
#define ISEX_OBS_ENABLED 1
#define ISEX_COUNT_ADD(name, n)                              \
  do {                                                       \
    static ::isex::obs::Counter& isex_obs_counter_ =         \
        ::isex::obs::Registry::global().counter(name);       \
    isex_obs_counter_.add(static_cast<std::uint64_t>(n));    \
  } while (0)
#define ISEX_COUNT(name) ISEX_COUNT_ADD(name, 1)
#define ISEX_GAUGE_SET(name, v)                              \
  do {                                                       \
    static ::isex::obs::Gauge& isex_obs_gauge_ =             \
        ::isex::obs::Registry::global().gauge(name);         \
    isex_obs_gauge_.set(static_cast<double>(v));             \
  } while (0)
#define ISEX_HIST(name, v)                                   \
  do {                                                       \
    static ::isex::obs::Histogram& isex_obs_hist_ =          \
        ::isex::obs::Registry::global().histogram(name);     \
    isex_obs_hist_.record(static_cast<std::int64_t>(v));     \
  } while (0)
#else
#define ISEX_OBS_ENABLED 0
#define ISEX_COUNT_ADD(name, n) ((void)0)
#define ISEX_COUNT(name) ((void)0)
#define ISEX_GAUGE_SET(name, v) ((void)0)
#define ISEX_HIST(name, v) ((void)0)
#endif
