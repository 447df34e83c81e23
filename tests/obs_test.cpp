// isex::obs — registry semantics, span nesting, exporter parse-back,
// thread-safety smoke, and the tracing-on/off bit-identical guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "isex/customize/select_edf.hpp"
#include "isex/customize/select_rms.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/obs/provenance.hpp"
#include "isex/obs/trace.hpp"
#include "isex/rt/simulator.hpp"
#include "isex/util/stopwatch.hpp"
#include "isex/workloads/tasks.hpp"

namespace isex {
namespace {

// --- minimal JSON reader for exporter parse-back -----------------------------
//
// Validates syntax and walks the tree; just enough to assert the Chrome trace
// export is well-formed JSON (numbers, strings with escapes, nesting) without
// depending on an external parser.
class JsonReader {
 public:
  explicit JsonReader(std::string text) : s_(std::move(text)) {}

  /// Parses one complete value and requires trailing whitespace only.
  bool valid() {
    pos_ = 0;
    objects_ = 0;
    if (!value()) return false;
    ws();
    return pos_ == s_.size();
  }
  /// Number of JSON objects parsed by the last valid() call.
  int objects() const { return objects_; }

 private:
  void ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool lit(const char* t) {
    const std::size_t n = std::char_traits<char>::length(t);
    if (s_.compare(pos_, n, t) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i)
            if (++pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_])))
              return false;
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool value() {
    ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': {
        ++objects_;
        ++pos_;
        ws();
        if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
        while (true) {
          ws();
          if (!string()) return false;
          ws();
          if (pos_ >= s_.size() || s_[pos_] != ':') return false;
          ++pos_;
          if (!value()) return false;
          ws();
          if (pos_ < s_.size() && s_[pos_] == ',') { ++pos_; continue; }
          break;
        }
        if (pos_ >= s_.size() || s_[pos_] != '}') return false;
        return ++pos_, true;
      }
      case '[': {
        ++pos_;
        ws();
        if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
        while (true) {
          if (!value()) return false;
          ws();
          if (pos_ < s_.size() && s_[pos_] == ',') { ++pos_; continue; }
          break;
        }
        if (pos_ >= s_.size() || s_[pos_] != ']') return false;
        return ++pos_, true;
      }
      case '"':
        return string();
      case 't':
        return lit("true");
      case 'f':
        return lit("false");
      case 'n':
        return lit("null");
      default:
        return number();
    }
  }

  std::string s_;
  std::size_t pos_ = 0;
  int objects_ = 0;
};

TEST(JsonReaderTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonReader(R"({"a": [1, -2.5e3, "x\n\"y\u00e9"], "b": {}})").valid());
  EXPECT_FALSE(JsonReader(R"({"a": )").valid());
  EXPECT_FALSE(JsonReader(R"({"a": 1} trailing)").valid());
  EXPECT_FALSE(JsonReader("{\"bad\": \"\\q\"}").valid());
}

// --- registry ----------------------------------------------------------------

TEST(MetricsTest, CounterGetOrCreateIsStable) {
  auto& reg = obs::Registry::global();
  auto& a = reg.counter("test.obs.counter_a");
  auto& a2 = reg.counter("test.obs.counter_a");
  EXPECT_EQ(&a, &a2);
  a.reset();
  a.add();
  a.add(41);
  EXPECT_EQ(a.get(), 42u);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test.obs.counter_a"), 42u);
}

TEST(MetricsTest, GaugeHoldsLastValue) {
  auto& g = obs::Registry::global().gauge("test.obs.gauge");
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.get(), -3.25);
}

TEST(MetricsTest, MacrosFeedTheGlobalRegistry) {
  obs::Registry::global().counter("test.obs.macro_counter").reset();
  for (int i = 0; i < 5; ++i) ISEX_COUNT("test.obs.macro_counter");
  ISEX_COUNT_ADD("test.obs.macro_counter", 10);
  // In a -DISEX_NO_OBS build the macros are `((void)0)` and must leave the
  // counter untouched; otherwise they add through the cached reference.
  const std::uint64_t expected = ISEX_OBS_ENABLED ? 15u : 0u;
  EXPECT_EQ(obs::Registry::global().counter("test.obs.macro_counter").get(),
            expected);
}

TEST(MetricsTest, Pow2HistogramBuckets) {
  obs::Histogram h;
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(5);
  h.record(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1011);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1000);
  const auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 4u);  // 0, 1, [4,7], [512,1023]
  EXPECT_EQ(buckets[0].upper_bound, 0);
  EXPECT_EQ(buckets[0].count, 1u);
  EXPECT_EQ(buckets[1].upper_bound, 1);
  EXPECT_EQ(buckets[2].upper_bound, 7);
  EXPECT_EQ(buckets[2].count, 2u);
  EXPECT_EQ(buckets[3].upper_bound, 1023);
}

TEST(MetricsTest, ExplicitBoundsHistogram) {
  obs::Histogram h({10, 100});
  h.record(10);   // first bucket (inclusive bound)
  h.record(11);   // second bucket
  h.record(1000000);  // overflow bucket
  const auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].upper_bound, 10);
  EXPECT_EQ(buckets[0].count, 1u);
  EXPECT_EQ(buckets[1].upper_bound, 100);
  EXPECT_EQ(buckets[1].count, 1u);
  EXPECT_EQ(buckets[2].upper_bound, INT64_MAX);
  EXPECT_EQ(buckets[2].count, 1u);
}

TEST(MetricsTest, RegistryJsonParsesBack) {
  auto& reg = obs::Registry::global();
  reg.counter("test.obs.json \"quoted\"\n").add(7);
  reg.gauge("test.obs.json_gauge").set(2.5);
  reg.histogram("test.obs.json_hist").record(3);
  std::ostringstream os;
  reg.write_json(os);
  JsonReader r(os.str());
  EXPECT_TRUE(r.valid()) << os.str();
  EXPECT_NE(os.str().find("test.obs.json \\\"quoted\\\"\\n"), std::string::npos);
}

TEST(MetricsTest, ResetZeroesButKeepsReferencesValid) {
  auto& reg = obs::Registry::global();
  auto& c = reg.counter("test.obs.reset_me");
  c.add(9);
  reg.reset();
  EXPECT_EQ(c.get(), 0u);
  c.add(2);
  EXPECT_EQ(reg.snapshot().counters.at("test.obs.reset_me"), 2u);
}

// --- trace buffer and spans --------------------------------------------------

class TraceBufferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& tb = obs::TraceBuffer::global();
    tb.clear();
    tb.set_capacity(1 << 20);
    tb.set_enabled(true);
  }
  void TearDown() override {
    obs::TraceBuffer::global().set_enabled(false);
    obs::TraceBuffer::global().clear();
  }
};

TEST_F(TraceBufferTest, SpanNestingRecordsContainedIntervals) {
  {
    obs::Span outer("outer", "test");
    outer.arg("k", "v");
    {
      obs::Span inner("inner", "test");
    }
  }
  const auto events = obs::TraceBuffer::global().events();
  ASSERT_EQ(events.size(), 2u);
  // Spans close inner-first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  const auto& inner = events[0];
  const auto& outer = events[1];
  EXPECT_GE(inner.ts, outer.ts);
  EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur);
  ASSERT_EQ(outer.args.size(), 1u);
  EXPECT_EQ(outer.args[0].first, "k");
  EXPECT_EQ(outer.args[0].second, "v");
}

TEST_F(TraceBufferTest, DisabledBufferRecordsNothing) {
  obs::TraceBuffer::global().set_enabled(false);
  {
    obs::Span s("ignored", "test");
    ISEX_SPAN("ignored_macro");
  }
  obs::trace_instant("ignored", "test", obs::kSimPid, 0, 5);
  EXPECT_EQ(obs::TraceBuffer::global().size(), 0u);
}

TEST_F(TraceBufferTest, OverflowDropsAndCounts) {
  auto& tb = obs::TraceBuffer::global();
  tb.clear();
  tb.set_capacity(4);
  for (int i = 0; i < 10; ++i)
    obs::trace_instant("e", "test", obs::kSimPid, 0, i);
  EXPECT_EQ(tb.size(), 4u);
  EXPECT_EQ(tb.dropped(), 6u);
  tb.set_capacity(1 << 20);
}

TEST_F(TraceBufferTest, ChromeJsonParsesBackWithBothTimelines) {
  auto& tb = obs::TraceBuffer::global();
  tb.set_thread_name(obs::kSimPid, 0, "crc32");
  { obs::Span s("wall \"span\"", "test"); }
  obs::trace_complete("crc32", "sim.exec", obs::kSimPid, 0, 100, 50,
                      {{"job", "0"}});
  obs::trace_instant("miss", "sim", obs::kSimPid, 0, 150);
  std::ostringstream os;
  tb.write_chrome_json(os);
  const std::string json = os.str();
  JsonReader r(json);
  EXPECT_TRUE(r.valid()) << json;
  // 3 events + >= 3 metadata records (2 process names, 1 thread name), each
  // an object with an args object inside.
  EXPECT_GE(r.objects(), 6);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"wall \\\"span\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"crc32\""), std::string::npos);
}

TEST_F(TraceBufferTest, CsvExportEscapesAndRoundsTrips) {
  obs::trace_complete("a,b", "test\"cat", obs::kSimPid, 3, 7, 2);
  std::ostringstream os;
  obs::TraceBuffer::global().write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"test\"\"cat\""), std::string::npos);
  // Header + one row.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST_F(TraceBufferTest, StopwatchAnnotatePublishesMatchingSpan) {
  util::Stopwatch sw;
  volatile int sink = 0;
  for (int i = 0; i < 1000; ++i) sink = sink + i;
  sw.annotate("test.stopwatch");
  const auto events = obs::TraceBuffer::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.stopwatch");
  EXPECT_EQ(events[0].pid, obs::kWallPid);
  // The span and seconds() read the same clock, so the recorded duration can
  // never exceed a later reading.
  EXPECT_LE(static_cast<double>(events[0].dur) * 1e-9, sw.seconds());
  EXPECT_GE(events[0].dur, 0);
}

TEST_F(TraceBufferTest, ThreadSafetySmoke) {
  auto& tb = obs::TraceBuffer::global();
  auto& c = obs::Registry::global().counter("test.obs.mt");
  c.reset();
  constexpr int kThreads = 8, kIters = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.add();
        if (i % 50 == 0)
          obs::trace_instant("mt", "test", obs::kSimPid, t, i);
      }
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.get(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(tb.size() + tb.dropped(),
            static_cast<std::uint64_t>(kThreads) * (kIters / 50));
  std::ostringstream os;
  tb.write_chrome_json(os);
  EXPECT_TRUE(JsonReader(os.str()).valid());
}

// --- tracing must not perturb results ----------------------------------------

TEST(ObsInvarianceTest, SelectionBitIdenticalWithTracingOnAndOff) {
  auto ts = workloads::make_taskset({"crc32", "sha"}, 1.02);
  ts.sort_by_period();
  const double budget = 0.5 * ts.max_area();

  auto& tb = obs::TraceBuffer::global();
  tb.clear();
  tb.set_enabled(false);
  const auto edf_off = customize::select_edf(ts, budget);
  const auto rms_off = customize::select_rms(ts, budget);

  tb.set_enabled(true);
  const auto edf_on = customize::select_edf(ts, budget);
  const auto rms_on = customize::select_rms(ts, budget);
  tb.set_enabled(false);
  tb.clear();

  EXPECT_EQ(edf_on.assignment, edf_off.assignment);
  EXPECT_EQ(edf_on.utilization, edf_off.utilization);  // bit-identical
  EXPECT_EQ(edf_on.area_used, edf_off.area_used);
  EXPECT_EQ(edf_on.schedulable, edf_off.schedulable);
  EXPECT_EQ(rms_on.assignment, rms_off.assignment);
  EXPECT_EQ(rms_on.utilization, rms_off.utilization);
  EXPECT_EQ(rms_on.schedulable, rms_off.schedulable);
}

TEST(ObsInvarianceTest, SimulationBitIdenticalWithTracingOnAndOff) {
  std::vector<rt::SimTask> tasks = {{3, 10}, {4, 15}, {5, 30}};
  rt::SimOptions so;
  so.horizon = 300;

  auto& tb = obs::TraceBuffer::global();
  tb.clear();
  tb.set_enabled(false);
  const auto off = rt::simulate(tasks, so);
  tb.set_enabled(true);
  const auto on = rt::simulate(tasks, so);
  tb.set_enabled(false);

  EXPECT_EQ(on.completed_jobs, off.completed_jobs);
  EXPECT_EQ(on.missed_jobs, off.missed_jobs);
  EXPECT_EQ(on.busy_cycles, off.busy_cycles);
  EXPECT_EQ(on.worst_response, off.worst_response);
  EXPECT_EQ(on.all_met, off.all_met);
  // The traced run produced schedule events on the sim timeline (unless the
  // simulator's instrumentation was compiled out with ISEX_NO_OBS).
  if (ISEX_OBS_ENABLED)
    EXPECT_GT(tb.size(), 0u);
  else
    EXPECT_EQ(tb.size(), 0u);
  tb.clear();
}

TEST(ProvenanceTest, EnvironmentShaWinsOverConfigureTimeSha) {
  const char* github = std::getenv("GITHUB_SHA");
  const std::string saved = github != nullptr ? github : "";
  ::unsetenv("GITHUB_SHA");
  ::setenv("ISEX_GIT_SHA", "0123abc", 1);
  EXPECT_EQ(obs::collect_provenance().git_sha, "0123abc");
  ::unsetenv("ISEX_GIT_SHA");
  // Without either variable: the sha stamped at configure time, or
  // "unknown" outside a git checkout; never empty.
  const std::string fallback = obs::collect_provenance().git_sha;
  EXPECT_FALSE(fallback.empty());
  EXPECT_NE(fallback, "0123abc");
  if (!saved.empty()) ::setenv("GITHUB_SHA", saved.c_str(), 1);
}

}  // namespace
}  // namespace isex
