// Schedulability analysis for EDF and RMS on a uniprocessor.
//
// EDF: a set of independent preemptable periodic tasks with deadline = period
// is schedulable iff U <= 1 (Liu & Layland).
//
// RMS: no utilization-only exact test exists; we implement the exact test of
// Theorem 1 (Bini & Buttazzo): task T_i (tasks indexed by decreasing
// priority, i.e. increasing period) is schedulable iff
//     L_i = min_{t in S_{i-1}(P_i)}  [ sum_{j<=i} ceil(t/P_j) C_j ] / t  <= 1
// where S_0(t) = {t} and S_i(t) = S_{i-1}(floor(t/P_i) P_i) U S_{i-1}(t).
// The Liu-Layland sufficient bound U <= n(2^{1/n}-1) is also provided (used
// by the conservative RMS voltage-scaling path of Fig 3.4).
#pragma once

#include <cstddef>
#include <vector>

namespace isex::rt {

inline constexpr double kSchedEps = 1e-9;

/// EDF exact test: total utilization <= 1.
bool edf_schedulable(double total_utilization);

/// Liu-Layland sufficient RMS bound for n tasks.
double rms_utilization_bound(int n);

/// Exact RMS response check for task `i` (0-based), given execution times C
/// and periods P of tasks 0..i sorted by increasing period. Returns L_i.
double rms_load_factor(int i, const std::vector<double>& cycles,
                       const std::vector<double>& periods);

/// True iff task i meets its deadline under RMS (L_i <= 1).
bool rms_task_schedulable(int i, const std::vector<double>& cycles,
                          const std::vector<double>& periods);

/// True iff the entire task set (sorted by increasing period) is
/// RMS-schedulable: max_i L_i <= 1.
bool rms_schedulable(const std::vector<double>& cycles,
                     const std::vector<double>& periods);

/// The Theorem-1 test points of every priority level, built once from the
/// periods (sorted by increasing period). Level i holds the points of
/// S_{i-1}(P_i) in the order rms_load_factor visits them, each with its
/// multipliers ceil(t/P_j - kSchedEps) for j = 0..i, so checking a level
/// allocates nothing. A search that re-checks one task under many execution
/// times (customize::select_rms) pays the point-set construction once.
class RmsTestTable {
 public:
  explicit RmsTestTable(const std::vector<double>& periods);

  /// Same verdict as rms_task_schedulable(i, cycles, periods) for the
  /// execution times cycles[0..i], but stops at the first test point whose
  /// demand fits (L_i <= 1 needs only one such point).
  bool task_schedulable(std::size_t i, const double* cycles) const;

  std::size_t levels() const { return point_begin_.size() - 1; }
  std::size_t total_points() const { return points_.size(); }

 private:
  std::vector<std::size_t> point_begin_;  // level i: [begin[i], begin[i+1])
  std::vector<std::size_t> mult_begin_;   // level i's first multiplier
  std::vector<double> points_;
  std::vector<double> mults_;  // per point of level i: i+1 multipliers
};

}  // namespace isex::rt
