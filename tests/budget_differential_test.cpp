// Differential test of the budget layer: over ~200 small random task sets,
//   * budget-unlimited select_edf / select_rms match exhaustive brute force
//     (the budget plumbing changed no answers);
//   * budget-truncated runs always return a feasible assignment and are
//     never better than the exact optimum (anytime results are real
//     solutions, not accounting artifacts);
//   * the reported optimality gap actually bounds the distance to the
//     optimum.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "isex/customize/select_edf.hpp"
#include "isex/customize/select_rms.hpp"
#include "isex/robust/fallback.hpp"
#include "isex/rt/schedulability.hpp"
#include "test_util.hpp"

namespace isex::customize {
namespace {

/// Exhaustive minimum utilization over all in-budget assignments; when `rms`
/// is set only RMS-schedulable assignments qualify (infinity when none is).
double brute_min_util(const rt::TaskSet& ts, double budget, bool rms) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> assignment(ts.size(), 0);
  std::function<void(std::size_t, double)> rec = [&](std::size_t i,
                                                     double area) {
    if (i == ts.size()) {
      if (rms) {
        std::vector<double> c, p;
        for (std::size_t k = 0; k < ts.size(); ++k) {
          c.push_back(ts.tasks[k]
                          .configs[static_cast<std::size_t>(assignment[k])]
                          .cycles);
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

double assignment_area(const rt::TaskSet& ts, const std::vector<int>& a) {
  double area = 0;
  for (std::size_t i = 0; i < ts.size(); ++i)
    area += ts.tasks[i].configs[static_cast<std::size_t>(a[i])].area;
  return area;
}

/// The grid DP rounds configuration areas up to the grid, so its feasible
/// set is a subset of the continuous one; compare against brute force over
/// the same gridded areas to keep the oracle exact.
rt::TaskSet snap_to_grid(rt::TaskSet ts, double grid) {
  for (auto& t : ts.tasks)
    for (auto& c : t.configs)
      c.area = std::ceil(c.area / grid - 1e-9) * grid;
  return ts;
}

TEST(BudgetDifferential, UnlimitedEdfMatchesBruteForce) {
  util::Rng rng(1007);
  constexpr double kGrid = 1.0;
  for (int it = 0; it < 100; ++it) {
    auto ts = snap_to_grid(
        testing::random_taskset(rng, rng.uniform_int(2, 5), 4), kGrid);
    ts.sort_by_period();
    const double budget =
        std::floor(rng.uniform_real(0.2, 0.8) * ts.max_area());
    customize::EdfOptions o;
    o.area_grid = kGrid;
    const auto out = customize::select_edf_bounded(ts, budget, o);
    ASSERT_EQ(out.status, robust::Status::kExact);
    const double brute = brute_min_util(ts, budget, false);
    EXPECT_NEAR(out.value.utilization, brute, 1e-9)
        << "it=" << it << " budget=" << budget;
    EXPECT_LE(assignment_area(ts, out.value.assignment), budget + 1e-9);
  }
}

TEST(BudgetDifferential, UnlimitedRmsMatchesBruteForce) {
  util::Rng rng(2011);
  for (int it = 0; it < 100; ++it) {
    auto ts = testing::random_taskset(rng, rng.uniform_int(2, 4), 4);
    ts.sort_by_period();
    const double budget = rng.uniform_real(0.2, 0.8) * ts.max_area();
    const auto out = customize::select_rms_bounded(ts, budget, {});
    const double brute = brute_min_util(ts, budget, true);
    if (std::isinf(brute)) {
      // No RMS-schedulable assignment exists within the budget.
      EXPECT_FALSE(out.value.found_feasible);
    } else {
      ASSERT_EQ(out.status, robust::Status::kExact) << "it=" << it;
      EXPECT_NEAR(out.value.utilization, brute, 1e-9) << "it=" << it;
      EXPECT_LE(assignment_area(ts, out.value.assignment), budget + 1e-9);
    }
  }
}

TEST(BudgetDifferential, TruncatedEdfNeverBeatsExactAndGapHolds) {
  util::Rng rng(3019);
  constexpr double kGrid = 1.0;
  for (int it = 0; it < 100; ++it) {
    auto ts = snap_to_grid(
        testing::random_taskset(rng, rng.uniform_int(3, 5), 4), kGrid);
    ts.sort_by_period();
    const double budget =
        std::floor(rng.uniform_real(0.2, 0.8) * ts.max_area());
    const double exact = brute_min_util(ts, budget, false);

    robust::Budget b;
    b.set_node_budget(rng.uniform_int(1, 12));
    customize::EdfOptions o;
    o.area_grid = kGrid;
    o.budget = &b;
    const auto out = customize::select_edf_bounded(ts, budget, o);
    // Feasible: real assignment within the area budget.
    ASSERT_EQ(out.value.assignment.size(), ts.size());
    EXPECT_LE(assignment_area(ts, out.value.assignment), budget + 1e-9);
    // Never better than the true optimum.
    EXPECT_GE(out.value.utilization, exact - 1e-9);
    if (out.status == robust::Status::kBudgetTruncated) {
      // The reported gap really bounds the distance to the optimum.
      const double lb = out.value.utilization / (1 + out.optimality_gap);
      EXPECT_LE(lb, exact + 1e-9) << "it=" << it;
    }
  }
}

TEST(BudgetDifferential, TruncatedRmsNeverBeatsExact) {
  util::Rng rng(4021);
  int tighter = 0;
  for (int it = 0; it < 60; ++it) {
    auto ts = testing::random_taskset(rng, rng.uniform_int(3, 4), 4);
    ts.sort_by_period();
    const double budget = rng.uniform_real(0.3, 0.8) * ts.max_area();
    const double exact = brute_min_util(ts, budget, true);

    robust::Budget b;
    b.set_node_budget(rng.uniform_int(1, 10));
    customize::RmsOptions o;
    o.budget = &b;
    const auto out = customize::select_rms_bounded(ts, budget, o);
    EXPECT_LE(assignment_area(ts, out.value.assignment), budget + 1e-9);
    if (out.value.found_feasible && !std::isinf(exact)) {
      EXPECT_GE(out.value.utilization, exact - 1e-9) << "it=" << it;
    }
    if (out.status == robust::Status::kBudgetTruncated && !std::isinf(exact)) {
      // The gap's lower bound is the area-aware root bound: never above the
      // optimum, never below "every task at its fastest configuration".
      const double lb = out.value.utilization / (1 + out.optimality_gap);
      double fastest = 0;
      for (const rt::Task& t : ts.tasks) fastest += t.best_cycles() / t.period;
      EXPECT_LE(lb, exact + 1e-9) << "it=" << it;
      EXPECT_GE(lb, fastest - 1e-9) << "it=" << it;
      tighter += lb > fastest + 1e-9 ? 1 : 0;
    }
  }
  EXPECT_GT(tighter, 0);

  // The ladder's beam rung: a node budget cuts the exact rung, then the
  // beam's node cap cuts it short within its retry slice, so it answers
  // Degraded with the tighter of its two valid gaps.
  int degraded = 0, beam_tighter = 0;
  for (int it = 0; it < 60; ++it) {
    auto ts = testing::random_taskset(rng, rng.uniform_int(3, 4), 4);
    ts.sort_by_period();
    const double budget = rng.uniform_real(0.3, 0.8) * ts.max_area();
    const double exact = brute_min_util(ts, budget, true);
    robust::Budget b;
    b.set_node_budget(rng.uniform_int(1, 4));
    customize::RmsOptions o;
    o.max_nodes = rng.uniform_int(5, 12);
    const auto out = robust::select_rms_with_fallback(ts, budget, o, &b);
    if (out.status != robust::Status::kDegraded ||
        !out.value.found_feasible || std::isinf(exact))
      continue;
    ++degraded;
    double fastest = 0;
    for (const rt::Task& t : ts.tasks) fastest += t.best_cycles() / t.period;
    const double gap_vs_lb = (out.value.utilization - fastest) / fastest;
    EXPECT_LE(out.optimality_gap, gap_vs_lb + 1e-12) << "it=" << it;
    EXPECT_LE(out.value.utilization / (1 + out.optimality_gap), exact + 1e-9)
        << "it=" << it;
    beam_tighter += out.optimality_gap < gap_vs_lb - 1e-9 ? 1 : 0;
  }
  EXPECT_GT(degraded, 0);
  EXPECT_GT(beam_tighter, 0);
}

TEST(BudgetDifferential, LadderResultNeverBeatsExactEither) {
  util::Rng rng(5023);
  constexpr double kGrid = 1.0;
  for (int it = 0; it < 40; ++it) {
    auto ts = snap_to_grid(
        testing::random_taskset(rng, rng.uniform_int(3, 5), 4), kGrid);
    ts.sort_by_period();
    const double budget =
        std::floor(rng.uniform_real(0.3, 0.8) * ts.max_area());
    const double exact = brute_min_util(ts, budget, false);
    robust::Budget b;
    b.set_node_budget(rng.uniform_int(1, 8));
    customize::EdfOptions base;
    base.area_grid = kGrid;
    const auto out = robust::select_edf_with_fallback(ts, budget, base, &b);
    EXPECT_LE(assignment_area(ts, out.value.assignment), budget + 1e-9);
    EXPECT_GE(out.value.utilization, exact - 1e-9) << "it=" << it;
  }
}

}  // namespace
}  // namespace isex::customize
