// Chapter 3 core tests: the EDF dynamic program and the RMS branch-and-bound
// against exhaustive ground truth, plus the Fig 3.2 motivating example.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "isex/certify/schedule.hpp"
#include "isex/customize/heuristics.hpp"
#include "isex/customize/motivating.hpp"
#include "isex/customize/select_edf.hpp"
#include "isex/customize/select_rms.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/robust/budget.hpp"
#include "isex/rt/schedulability.hpp"
#include "isex/workloads/tasks.hpp"
#include "test_util.hpp"

namespace isex::customize {
namespace {

/// Exhaustive minimum utilization over all assignments within the budget;
/// if rms is set, only RMS-schedulable assignments qualify.
double brute_min_util(const rt::TaskSet& ts, double budget, bool rms) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> assignment(ts.size(), 0);
  std::function<void(std::size_t, double)> rec = [&](std::size_t i, double area) {
    if (i == ts.size()) {
      if (rms) {
        std::vector<double> c, p;
        for (std::size_t k = 0; k < ts.size(); ++k) {
          c.push_back(
              ts.tasks[k].configs[static_cast<std::size_t>(assignment[k])].cycles);
          p.push_back(ts.tasks[k].period);
        }
        if (!rt::rms_schedulable(c, p)) return;
      }
      best = std::min(best, ts.utilization(assignment));
      return;
    }
    for (std::size_t j = 0; j < ts.tasks[i].configs.size(); ++j) {
      const double a = ts.tasks[i].configs[j].area;
      if (a > area + 1e-9) continue;
      assignment[i] = static_cast<int>(j);
      rec(i + 1, area - a);
    }
    assignment[i] = 0;
  };
  rec(0, budget);
  return best;
}

TEST(Motivating, SoftwareOnlyIsUnschedulable) {
  const auto ts = motivating_example();
  EXPECT_NEAR(ts.sw_utilization(), 29.0 / 24.0, 1e-12);
}

TEST(Motivating, AllFourHeuristicsFail) {
  const auto ts = motivating_example();
  // Fig 3.2(a): equal split leaves every task in software, U' = 29/24.
  auto a = select_heuristic(ts, kMotivatingAreaBudget,
                            Heuristic::kEqualAreaDivision);
  EXPECT_NEAR(a.utilization, 29.0 / 24.0, 1e-12);
  EXPECT_FALSE(a.schedulable);
  // Fig 3.2(b,c,d): each customizes only T1, U' = 25/24.
  for (auto h : {Heuristic::kSmallestDeadlineFirst,
                 Heuristic::kHighestUtilReduction,
                 Heuristic::kBestGainAreaRatio}) {
    auto r = select_heuristic(ts, kMotivatingAreaBudget, h);
    EXPECT_NEAR(r.utilization, 25.0 / 24.0, 1e-12) << heuristic_name(h);
    EXPECT_FALSE(r.schedulable) << heuristic_name(h);
  }
}

TEST(Motivating, OptimalEdfSelectionSchedulesTheSet) {
  const auto ts = motivating_example();
  const auto r = select_edf(ts, kMotivatingAreaBudget, EdfOptions{1.0});
  EXPECT_TRUE(r.schedulable);
  EXPECT_NEAR(r.utilization, 1.0, 1e-12);
  // Fig 3.2(e): T1 in software, T2 and T3 customized.
  EXPECT_EQ(r.assignment, (std::vector<int>{0, 1, 1}));
  EXPECT_NEAR(r.area_used, 10.0, 1e-12);
}

class EdfDpProperty : public ::testing::TestWithParam<int> {};

TEST_P(EdfDpProperty, MatchesExhaustiveOptimum) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 3);
  auto ts = isex::testing::random_taskset(rng, rng.uniform_int(2, 5), 4);
  const double budget = rng.uniform_int(0, 80);
  const auto r = select_edf(ts, budget, EdfOptions{1.0});
  // Areas are integers in the generator, so grid 1.0 is exact.
  EXPECT_NEAR(r.utilization, brute_min_util(ts, budget, false), 1e-9);
  EXPECT_LE(r.area_used, budget + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdfDpProperty, ::testing::Range(0, 25));

TEST(EdfDp, MonotoneInBudget) {
  util::Rng rng(1234);
  auto ts = isex::testing::random_taskset(rng, 4, 5);
  double prev = std::numeric_limits<double>::infinity();
  for (double budget = 0; budget <= ts.max_area(); budget += 10) {
    const auto r = select_edf(ts, budget, EdfOptions{1.0});
    EXPECT_LE(r.utilization, prev + 1e-12);
    prev = r.utilization;
  }
}

class RmsBnbProperty : public ::testing::TestWithParam<int> {};

TEST_P(RmsBnbProperty, MatchesExhaustiveOptimum) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 73 + 9);
  auto ts = isex::testing::random_taskset(rng, rng.uniform_int(2, 4), 3);
  // Push software utilization near 1 so RMS feasibility is non-trivial.
  ts.set_periods_for_utilization(rng.uniform_real(0.85, 1.15));
  ts.sort_by_period();
  const double budget = rng.uniform_int(0, 60);
  const auto r = select_rms(ts, budget);
  const double expected = brute_min_util(ts, budget, true);
  if (std::isinf(expected)) {
    EXPECT_FALSE(r.found_feasible);
  } else {
    ASSERT_TRUE(r.found_feasible);
    EXPECT_NEAR(r.utilization, expected, 1e-9);
    // The returned assignment really is RMS-schedulable.
    std::vector<double> c, p;
    for (std::size_t k = 0; k < ts.size(); ++k) {
      c.push_back(
          ts.tasks[k].configs[static_cast<std::size_t>(r.assignment[k])].cycles);
      p.push_back(ts.tasks[k].period);
    }
    EXPECT_TRUE(rt::rms_schedulable(c, p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RmsBnbProperty, ::testing::Range(0, 25));

// Ablation: disabling the utilization bound or the fastest-first order must
// not change the optimum, only the node count.
TEST(RmsBnb, PruningAblationPreservesOptimum) {
  util::Rng rng(777);
  auto ts = isex::testing::random_taskset(rng, 4, 4);
  ts.set_periods_for_utilization(1.05);
  ts.sort_by_period();
  const double budget = 50;
  const auto full = select_rms(ts, budget);
  RmsOptions no_bound;
  no_bound.use_bound_pruning = false;
  const auto nb = select_rms(ts, budget, no_bound);
  RmsOptions no_order;
  no_order.fastest_first = false;
  const auto no = select_rms(ts, budget, no_order);
  EXPECT_EQ(full.found_feasible, nb.found_feasible);
  EXPECT_EQ(full.found_feasible, no.found_feasible);
  if (full.found_feasible) {
    EXPECT_NEAR(full.utilization, nb.utilization, 1e-12);
    EXPECT_NEAR(full.utilization, no.utilization, 1e-12);
  }
  EXPECT_LE(full.nodes_visited, nb.nodes_visited);
}

/// Replaces a task set's integer areas by fractional ones: multiples of 0.25
/// when `quarter`, else irregular reals. Each curve stays ascending in area.
rt::TaskSet fractional_areas(rt::TaskSet ts, util::Rng& rng, bool quarter) {
  for (rt::Task& t : ts.tasks) {
    double area = 0;
    for (std::size_t j = 1; j < t.configs.size(); ++j) {
      area += quarter ? 0.25 * rng.uniform_int(1, 40)
                      : rng.uniform_real(0.01, 9.99);
      t.configs[j].area = area;
    }
  }
  return ts;
}

// The area-aware bound must keep the search exact in real areas: brute force
// (certify's spot check) agrees with and without bound pruning, and both runs
// return the same leftmost optimum. Every other instance repeats a task, so
// equal-utilization ties are common.
TEST(RmsBnb, FractionalAreasMatchBruteForceWithAndWithoutBound) {
  util::Rng rng(1607);
  int feasible = 0;
  for (int it = 0; it < 120; ++it) {
    auto ts = fractional_areas(
        isex::testing::random_taskset(rng, rng.uniform_int(2, 5), 5), rng,
        it % 3 != 0);
    if (it % 2 == 1) ts.tasks.push_back(ts.tasks.front());
    ts.set_periods_for_utilization(rng.uniform_real(0.9, 1.3));
    ts.sort_by_period();
    // Budgets between configuration areas, and a hair (within the search's
    // 1e-9 area tolerance) below the sum of two tasks' largest areas.
    const double budget =
        it % 4 == 0 ? ts.tasks[0].configs.back().area +
                          ts.tasks[1].configs.back().area - 5e-10
                    : rng.uniform_real(0.1, 0.8) * ts.max_area();
    RmsOptions off;
    off.use_bound_pruning = false;
    const auto on = select_rms(ts, budget);
    const auto plain = select_rms(ts, budget, off);
    ASSERT_TRUE(on.completed);
    ASSERT_TRUE(plain.completed);
    EXPECT_TRUE(certify::spot_check_rms(ts, budget, on, 1000000).ok())
        << "it=" << it;
    EXPECT_TRUE(certify::spot_check_rms(ts, budget, plain, 1000000).ok())
        << "it=" << it;
    EXPECT_EQ(on.found_feasible, plain.found_feasible) << "it=" << it;
    EXPECT_EQ(on.assignment, plain.assignment) << "it=" << it;
    EXPECT_LE(on.nodes_visited, plain.nodes_visited) << "it=" << it;
    feasible += on.found_feasible ? 1 : 0;
  }
  EXPECT_GT(feasible, 30);
  EXPECT_LT(feasible, 120);
}

// Curves whose configurations all lie on one utilization-per-area line make
// every combination non-dominated, so the suffix lists outgrow their cap and
// are coarsened. The coarse bound must still keep the leftmost optimum.
TEST(RmsBnb, CoarsenedFrontsKeepTheOptimum) {
  util::Rng rng(8191);
  rt::TaskSet ts;
  for (int i = 0; i < 4; ++i) {
    rt::Task t;
    t.name = "L" + std::to_string(i);
    t.period = 1000.0 * (i + 1);
    double area = 0;
    for (int j = 0; j < (i < 2 ? 4 : 64); ++j) {
      t.configs.push_back({area, (i + 1) * (200.0 - 2.0 * area)});
      area += rng.uniform_real(0.05, 1.0);
    }
    ts.tasks.push_back(std::move(t));
  }
  const double budget = 0.5 * ts.max_area();
  RmsOptions off;
  off.use_bound_pruning = false;
  const auto on = select_rms(ts, budget);
  const auto plain = select_rms(ts, budget, off);
  ASSERT_TRUE(on.found_feasible);
  EXPECT_EQ(on.assignment, plain.assignment);
  EXPECT_LT(on.nodes_visited, plain.nodes_visited);
}

// The suffix-front build runs before the first search node is charged; at
// 16 tasks of 64 configurations on one utilization line it alone takes tens
// of milliseconds. A cancelled budget must stop the build, not only the
// search after it.
TEST(RmsBnb, CancelledBudgetStopsTheFrontBuild) {
  util::Rng rng(8209);
  rt::TaskSet ts;
  for (int i = 0; i < 16; ++i) {
    rt::Task t;
    t.name = "L" + std::to_string(i);
    t.period = 1000.0 * (i + 1);
    double area = 0;
    for (int j = 0; j < 64; ++j) {
      t.configs.push_back({area, (i + 1) * (200.0 - 2.0 * area)});
      area += rng.uniform_real(0.05, 1.0);
    }
    ts.tasks.push_back(std::move(t));
  }
  robust::clear_global_cancel();
  robust::Budget b;
  robust::request_global_cancel();
  ASSERT_TRUE(b.exhausted());  // the cancel is latched in this budget
  robust::clear_global_cancel();
  RmsOptions o;
  o.budget = &b;
  obs::Registry::global().reset();
  const auto r = select_rms(ts, 0.5 * ts.max_area(), o);
  EXPECT_EQ(r.status, robust::Status::kBudgetTruncated);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.nodes_visited, 0);
  EXPECT_FALSE(r.schedulable);
  // The gap falls back to the every-task-fastest bound.
  double fastest = 0;
  for (const rt::Task& t : ts.tasks) fastest += t.best_cycles() / t.period;
  EXPECT_NEAR(r.optimality_gap, (r.utilization - fastest) / fastest, 1e-9);
#if ISEX_OBS_ENABLED
  // Only the empty suffix's single entry was built.
  EXPECT_EQ(
      obs::Registry::global().snapshot().counters["customize.rms.front_entries"],
      1u);
#endif
}

// Serial search over all 18 Table 5.1 kernels: before the area-aware bound
// the node count grew past 16M at 8 tasks. The cap keeps that from coming
// back; the search itself needs ~120k nodes.
TEST(RmsBnb, EighteenKernelsStayWithinNodeCap) {
  const std::vector<std::string> kernels = {
      "crc32",      "sha",        "blowfish", "rijndael", "susan",
      "adpcm_enc",  "adpcm_dec",  "cjpeg",    "djpeg",    "g721encode",
      "g721decode", "jfdctint",   "ndes",     "edn",      "lms",
      "compress",   "aes",        "3des"};
  auto ts = workloads::make_taskset(kernels, 1.05);
  ts.sort_by_period();
  const auto r = select_rms(ts, 0.5 * ts.max_area());
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.found_feasible);
  EXPECT_LT(r.nodes_visited, 1000000);
  EXPECT_LE(r.area_used, 0.5 * ts.max_area() + 1e-9);
}

TEST(SetPeriods, HitsRequestedUtilization) {
  util::Rng rng(5);
  auto ts = isex::testing::random_taskset(rng, 5, 3);
  for (double u : {0.8, 1.0, 1.05, 1.08, 1.1}) {
    ts.set_periods_for_utilization(u);
    EXPECT_NEAR(ts.sw_utilization(), u, 1e-9);
  }
}

}  // namespace
}  // namespace isex::customize
