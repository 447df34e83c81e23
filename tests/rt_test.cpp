// Real-time substrate tests: analytic schedulability vs simulated ground
// truth, EDF boundary behaviour, and the classic RMS counterexamples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "isex/rt/schedulability.hpp"
#include "isex/rt/simulator.hpp"
#include "isex/util/rng.hpp"

namespace isex::rt {
namespace {

TEST(Edf, BoundaryIsExactlyOne) {
  EXPECT_TRUE(edf_schedulable(1.0));
  EXPECT_TRUE(edf_schedulable(0.3));
  EXPECT_FALSE(edf_schedulable(1.001));
}

TEST(Rms, LiuLaylandBoundValues) {
  EXPECT_DOUBLE_EQ(rms_utilization_bound(1), 1.0);
  EXPECT_NEAR(rms_utilization_bound(2), 0.8284, 1e-4);
  EXPECT_NEAR(rms_utilization_bound(3), 0.7798, 1e-4);
}

TEST(Rms, ClassicFullUtilizationHarmonicSetIsSchedulable) {
  // Harmonic periods reach U = 1 under RMS.
  EXPECT_TRUE(rms_schedulable({1, 1, 2}, {2, 4, 8}));  // U = 1.0
  EXPECT_FALSE(rms_schedulable({1, 1, 3}, {2, 4, 8}));  // U = 1.125
}

TEST(Rms, ClassicUnschedulableAboveBound) {
  // C=(1,1,1), P=(2,3,4): U = 1/2+1/3+1/4 = 1.083 > 1 -> infeasible.
  EXPECT_FALSE(rms_schedulable({1, 1, 1}, {2, 3, 4}));
  // C=(1,1,1), P=(2,3,6): U = 1.0 exactly, and it IS RMS-schedulable
  // (critical instant: T3 finishes exactly at t=6).
  EXPECT_TRUE(rms_schedulable({1, 1, 1}, {2, 3, 6}));
}

TEST(Rms, LoadFactorMonotoneInCycles) {
  const double l1 = rms_load_factor(2, {1, 1, 1}, {4, 6, 8});
  const double l2 = rms_load_factor(2, {1, 1, 3}, {4, 6, 8});
  EXPECT_LT(l1, l2);
}

// The per-level test-point table must give rms_task_schedulable's verdict at
// every level. Harmonic, equal and integer-cycle sets put demand exactly on
// a test point, the boundary the early exit must not misjudge.
TEST(RmsTestTable, AgreesWithLoadFactorOnRandomSets) {
  util::Rng rng(20070416);
  long checks = 0, schedulable = 0;
  for (int it = 0; it < 12000; ++it) {
    const int n = rng.uniform_int(1, 7);
    const int kind = it % 4;
    std::vector<double> periods;
    for (int i = 0; i < n; ++i) {
      if (kind == 0) {  // arbitrary real periods
        periods.push_back(rng.uniform_real(5, 500));
      } else if (kind == 1) {  // harmonic chain, repeats allowed
        periods.push_back(i == 0 ? rng.uniform_int(2, 20)
                                 : periods.back() * rng.uniform_int(1, 3));
      } else if (kind == 2) {  // two distinct values only
        periods.push_back(rng.chance(0.5) ? 12 : 30);
      } else {  // small integers
        periods.push_back(rng.uniform_int(2, 40));
      }
    }
    std::sort(periods.begin(), periods.end());
    const double u = rng.uniform_real(0.7, 1.8);
    std::vector<double> cycles;
    for (int i = 0; i < n; ++i) {
      const double c = u / n * rng.uniform_real(0.3, 1.7) *
                       periods[static_cast<std::size_t>(i)];
      cycles.push_back(kind == 0 ? c : std::max(1.0, std::round(c)));
    }
    const RmsTestTable table(periods);
    ASSERT_EQ(table.levels(), periods.size());
    for (int i = 0; i < n; ++i) {
      const bool want = rms_task_schedulable(i, cycles, periods);
      ASSERT_EQ(table.task_schedulable(static_cast<std::size_t>(i),
                                       cycles.data()),
                want)
          << "iteration " << it << ", level " << i;
      ++checks;
      schedulable += want ? 1 : 0;
    }
  }
  // Both verdicts must be well represented for the agreement to mean much.
  EXPECT_GT(schedulable, checks / 5);
  EXPECT_LT(schedulable, checks * 4 / 5);
}

TEST(Simulator, HyperperiodLcm) {
  EXPECT_EQ(hyperperiod({{1, 4}, {1, 6}}, 1000), 12);
  EXPECT_EQ(hyperperiod({{1, 7}, {1, 11}, {1, 13}}, 100), 100);  // saturates
}

TEST(Simulator, MeetsDeadlinesAtFullEdfUtilization) {
  const std::vector<SimTask> tasks{{2, 4}, {3, 6}};  // U = 1.0
  SimOptions o;
  o.policy = Policy::kEdf;
  const auto r = simulate(tasks, o);
  EXPECT_TRUE(r.all_met);
  EXPECT_EQ(r.busy_cycles, r.horizon);  // fully loaded
}

TEST(Simulator, DetectsOverloadMiss) {
  const std::vector<SimTask> tasks{{3, 4}, {2, 6}};  // U = 1.083
  SimOptions o;
  o.policy = Policy::kEdf;
  const auto r = simulate(tasks, o);
  EXPECT_FALSE(r.all_met);
  EXPECT_FALSE(r.misses.empty());
}

TEST(Simulator, RmsPreemptionOrder) {
  // Shortest period runs first; T1 (P=4) preempts T2.
  const std::vector<SimTask> tasks{{1, 4}, {5, 10}};
  SimOptions o;
  o.policy = Policy::kRms;
  const auto r = simulate(tasks, o);
  EXPECT_TRUE(r.all_met);
  EXPECT_EQ(r.completed_jobs[0], r.horizon / 4);
  EXPECT_EQ(r.completed_jobs[1], r.horizon / 10);
}

// Property: the exact RMS test (Theorem 1) agrees with hyperperiod simulation
// of the synchronous (critical-instant) release pattern.
class RmsVsSimulation : public ::testing::TestWithParam<int> {};

TEST_P(RmsVsSimulation, ExactTestMatchesSimulation) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 17);
  const int n = rng.uniform_int(2, 5);
  std::vector<SimTask> tasks;
  std::vector<double> cycles, periods;
  for (int i = 0; i < n; ++i) {
    // Small periods keep the hyperperiod tame.
    const std::int64_t p = rng.uniform_int(4, 24);
    const std::int64_t c = rng.uniform_int(1, static_cast<int>(p) / 2 + 1);
    tasks.push_back({c, p});
  }
  std::sort(tasks.begin(), tasks.end(),
            [](const SimTask& a, const SimTask& b) { return a.period < b.period; });
  for (const auto& t : tasks) {
    cycles.push_back(static_cast<double>(t.wcet));
    periods.push_back(static_cast<double>(t.period));
  }
  SimOptions o;
  o.policy = Policy::kRms;
  const auto sim = simulate(tasks, o);
  EXPECT_EQ(rms_schedulable(cycles, periods), sim.all_met)
      << "analysis and simulation disagree";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RmsVsSimulation, ::testing::Range(0, 40));

// Property: EDF analysis (U <= 1) agrees with simulation.
class EdfVsSimulation : public ::testing::TestWithParam<int> {};

TEST_P(EdfVsSimulation, UtilizationTestMatchesSimulation) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 211 + 5);
  const int n = rng.uniform_int(2, 5);
  std::vector<SimTask> tasks;
  double u = 0;
  for (int i = 0; i < n; ++i) {
    const std::int64_t p = rng.uniform_int(4, 24);
    const std::int64_t c = rng.uniform_int(1, static_cast<int>(p));
    tasks.push_back({c, p});
    u += static_cast<double>(c) / static_cast<double>(p);
  }
  SimOptions o;
  o.policy = Policy::kEdf;
  const auto sim = simulate(tasks, o);
  EXPECT_EQ(edf_schedulable(u), sim.all_met);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdfVsSimulation, ::testing::Range(0, 40));

}  // namespace
}  // namespace isex::rt
