#include "isex/rt/schedulability.hpp"

#include <cmath>
#include <limits>
#include <set>
#include <utility>

namespace isex::rt {

bool edf_schedulable(double total_utilization) {
  return total_utilization <= 1.0 + kSchedEps;
}

double rms_utilization_bound(int n) {
  if (n <= 0) return 1.0;
  return static_cast<double>(n) *
         (std::pow(2.0, 1.0 / static_cast<double>(n)) - 1.0);
}

namespace {

/// Gathers S_i(t) into `points`. Overlapping subtrees collapse through the
/// visited set, so the worst-case 2^i blow-up rarely materializes.
void gather(int i, double t, const std::vector<double>& periods,
            std::set<std::pair<int, double>>& visited,
            std::set<double>& points) {
  if (!visited.insert({i, t}).second) return;
  if (i < 0) {
    points.insert(t);
    return;
  }
  const double p = periods[static_cast<std::size_t>(i)];
  const double snapped = std::floor(t / p + kSchedEps) * p;
  gather(i - 1, snapped, periods, visited, points);
  gather(i - 1, t, periods, visited, points);
}

}  // namespace

double rms_load_factor(int i, const std::vector<double>& cycles,
                       const std::vector<double>& periods) {
  // Test points: S_{i-1}(P_i).
  std::set<std::pair<int, double>> visited;
  std::set<double> points;
  gather(i - 1, periods[static_cast<std::size_t>(i)], periods, visited, points);

  double best = std::numeric_limits<double>::infinity();
  for (double t : points) {
    if (t <= kSchedEps) continue;
    double demand = 0;
    for (int j = 0; j <= i; ++j)
      demand += std::ceil(t / periods[static_cast<std::size_t>(j)] - kSchedEps) *
                cycles[static_cast<std::size_t>(j)];
    best = std::min(best, demand / t);
  }
  return best;
}

bool rms_task_schedulable(int i, const std::vector<double>& cycles,
                          const std::vector<double>& periods) {
  return rms_load_factor(i, cycles, periods) <= 1.0 + kSchedEps;
}

RmsTestTable::RmsTestTable(const std::vector<double>& periods) {
  point_begin_.push_back(0);
  for (std::size_t i = 0; i < periods.size(); ++i) {
    std::set<std::pair<int, double>> visited;
    std::set<double> points;
    gather(static_cast<int>(i) - 1, periods[i], periods, visited, points);
    mult_begin_.push_back(mults_.size());
    for (double t : points) {
      if (t <= kSchedEps) continue;
      points_.push_back(t);
      for (std::size_t j = 0; j <= i; ++j)
        mults_.push_back(std::ceil(t / periods[j] - kSchedEps));
    }
    point_begin_.push_back(points_.size());
  }
}

bool RmsTestTable::task_schedulable(std::size_t i, const double* cycles) const {
  const double* mult = mults_.data() + mult_begin_[i];
  for (std::size_t k = point_begin_[i]; k < point_begin_[i + 1]; ++k) {
    double demand = 0;
    for (std::size_t j = 0; j <= i; ++j) demand += mult[j] * cycles[j];
    if (demand / points_[k] <= 1.0 + kSchedEps) return true;
    mult += i + 1;
  }
  return false;
}

bool rms_schedulable(const std::vector<double>& cycles,
                     const std::vector<double>& periods) {
  for (std::size_t i = 0; i < cycles.size(); ++i)
    if (!rms_task_schedulable(static_cast<int>(i), cycles, periods))
      return false;
  return true;
}

}  // namespace isex::rt
