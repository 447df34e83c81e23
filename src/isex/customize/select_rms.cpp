#include "isex/customize/select_rms.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "isex/obs/trace.hpp"
#include "isex/rt/schedulability.hpp"

namespace isex::customize {

namespace {

/// Area slack of the search's area rule: a configuration fits when
/// cfg.area <= remaining area + kAreaTol.
constexpr double kAreaTol = 1e-9;
/// Relative slack on the Pareto bound. The bound sums each suffix in another
/// order than the search path does; the slack keeps float re-association from
/// lifting the bound above a leaf it must not cut.
constexpr double kBoundSlack = 1e-12;

/// One configuration of a level, in the order the search tries it.
struct Choice {
  double area;
  double cycles;
  double util;  // cycles / period
  int index;    // into Task::configs
};

/// Non-dominated (area, utilization) pairs of a task suffix: ascending area,
/// strictly descending utilization (a Nemhauser-Ullmann list).
using Front = std::vector<std::pair<double, double>>;

/// Caps a front's length, so a hostile curve (every combination of areas on
/// one utilization line is non-dominated) cannot grow the lists
/// geometrically. A longer front is coarsened to kMaxFront / 2 entries by
/// merging runs of neighbours into (first area, last utilization): the step
/// function only drops, so every bound built on it stays a lower bound.
constexpr std::size_t kMaxFront = 1 << 13;

void coarsen(Front& f) {
  const std::size_t stride = (f.size() + kMaxFront / 2 - 1) / (kMaxFront / 2);
  std::size_t out = 0;
  for (std::size_t k = 0; k < f.size(); k += stride)
    f[out++] = {f[k].first, f[std::min(f.size(), k + stride) - 1].second};
  f.resize(out);
}

/// Fills fronts[i] with the front of tasks i..N-1, built once per search in
/// real areas (no grid); fronts[N] = {(0, 0)}. Polls `budget` (clock and
/// global cancel, no node charge) before each task's merges, which the
/// kMaxFront cap keeps to milliseconds; returns false when it runs out, with
/// fronts[0..i] still empty for the task i it stopped at.
bool suffix_fronts(const rt::TaskSet& ts, robust::Budget* budget,
                   std::vector<Front>& fronts) {
  const std::size_t n = ts.size();
  fronts.assign(n + 1, {});
  fronts[n] = {{0.0, 0.0}};
  Front acc, merged;
  for (std::size_t i = n; i-- > 0;) {
    if (budget != nullptr && budget->exhausted()) return false;
    const rt::Task& t = ts.tasks[i];
    const Front& next = fronts[i + 1];
    acc.clear();
    for (const auto& cfg : t.configs) {
      const double u = cfg.cycles / t.period;
      merged.clear();
      auto a = acc.begin();
      auto keep = [&](double area, double util) {
        if (merged.empty() || util < merged.back().second)
          merged.emplace_back(area, util);
      };
      for (const auto& [na, nu] : next) {
        const std::pair<double, double> b{cfg.area + na, u + nu};
        for (; a != acc.end() && *a < b; ++a) keep(a->first, a->second);
        keep(b.first, b.second);
      }
      for (; a != acc.end(); ++a) keep(a->first, a->second);
      acc.swap(merged);
      if (acc.size() > kMaxFront) coarsen(acc);
    }
    fronts[i] = acc;
  }
  return true;
}

/// Minimum utilization of the front's entries with area <= limit; +inf when
/// none fits.
double front_min_util(const Front& f, double limit) {
  const auto it = std::upper_bound(
      f.begin(), f.end(), limit,
      [](double a, const std::pair<double, double>& e) { return a < e.first; });
  return it == f.begin() ? std::numeric_limits<double>::infinity()
                         : std::prev(it)->second;
}

struct Search {
  const rt::TaskSet& ts;
  const RmsOptions& opts;
  const double area_slack;  // kAreaTol plus float slack on remaining areas

  std::vector<std::vector<Choice>> levels;  // per task, in visit order
  std::vector<double> min_util_suffix;  // best possible utilization of tasks i..N-1
  std::vector<Front> fronts;            // area-aware suffix bounds
  rt::RmsTestTable tests;
  std::vector<double> cycles;  // execution time of tasks 0..level-1 (chosen)
  std::vector<int> current;

  double best_util = std::numeric_limits<double>::infinity();
  std::vector<int> best_assignment;
  bool found = false;
  bool truncated = false;  // node cap or budget stopped the search
  long nodes = 0;
  long bound_pruned = 0;
  long area_pruned = 0;
  long sched_pruned = 0;
  long incumbent_updates = 0;

  static std::vector<double> periods_of(const rt::TaskSet& ts) {
    std::vector<double> p;
    p.reserve(ts.size());
    for (const auto& task : ts.tasks) p.push_back(task.period);
    return p;
  }

  Search(const rt::TaskSet& t, double area_budget, const RmsOptions& o)
      : ts(t),
        opts(o),
        area_slack(kAreaTol + kBoundSlack * std::abs(area_budget)),
        tests(periods_of(t)) {
    // A cut build leaves the search truncated before its root; the gap then
    // falls back to the fastest-configuration bound (fronts[0] is empty).
    truncated = !suffix_fronts(t, o.budget, fronts);
    const auto n = ts.size();
    min_util_suffix.assign(n + 1, 0);
    for (std::size_t i = n; i-- > 0;)
      min_util_suffix[i] =
          min_util_suffix[i + 1] + ts.tasks[i].best_cycles() / ts.tasks[i].period;
    levels.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const rt::Task& task = ts.tasks[i];
      std::vector<std::size_t> order(task.configs.size());
      std::iota(order.begin(), order.end(), 0u);
      if (opts.fastest_first)
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                    return task.configs[a].cycles < task.configs[b].cycles;
                  });
      for (std::size_t j : order) {
        const auto& cfg = task.configs[j];
        levels[i].push_back({cfg.area, cfg.cycles, cfg.cycles / task.period,
                             static_cast<int>(j)});
      }
    }
    cycles.assign(n, 0);
    current.assign(n, 0);
  }

  std::size_t front_entries() const {
    std::size_t n = 0;
    for (const Front& f : fronts) n += f.size();
    return n;
  }

  /// Lower bound on every leaf below a node: the larger of "every remaining
  /// task at its fastest configuration" and the best suffix-front entry
  /// that fits in the remaining area.
  double lower_bound(std::size_t level, double util, double area) const {
    const double lb = util + min_util_suffix[level];
    if (lb >= best_util) return lb;
    const double suffix = front_min_util(fronts[level], area + area_slack);
    return std::max(lb, (util + suffix) * (1 - kBoundSlack));
  }

  void run(std::size_t level, double util, double area) {
    if (truncated) return;
    if (opts.max_nodes >= 0 && nodes > opts.max_nodes) {
      truncated = true;
      return;
    }
    if (opts.budget != nullptr && opts.budget->charge()) {
      truncated = true;
      return;
    }
    ++nodes;
    if (level == ts.size()) {
      if (util < best_util) {
        best_util = util;
        best_assignment = current;
        found = true;
        ++incumbent_updates;
      }
      return;
    }
    if (opts.use_bound_pruning && lower_bound(level, util, area) >= best_util) {
      ++bound_pruned;
      return;
    }

    for (const Choice& c : levels[level]) {
      if (c.area > area + kAreaTol) {  // area pruning
        ++area_pruned;
        continue;
      }
      cycles[level] = c.cycles;
      // Exact Theorem-1 check for this task only; the higher-priority tasks
      // were verified at shallower levels and cannot be disturbed.
      if (!tests.task_schedulable(level, cycles.data())) {
        ++sched_pruned;
        continue;  // this and only this subtree is infeasible
      }
      current[level] = c.index;
      run(level + 1, util + c.util, area - c.area);
    }
  }
};

}  // namespace

RmsResult select_rms(const rt::TaskSet& ts, double area_budget,
                     const RmsOptions& opts) {
  ISEX_SPAN_CAT("customize.select_rms", "customize");
  Search s(ts, area_budget, opts);
  s.run(0, 0, area_budget);
  ISEX_COUNT("customize.rms.runs");
  ISEX_COUNT_ADD("customize.rms.nodes", s.nodes);
  ISEX_COUNT_ADD("customize.rms.bound_pruned", s.bound_pruned);
  ISEX_COUNT_ADD("customize.rms.area_pruned", s.area_pruned);
  ISEX_COUNT_ADD("customize.rms.sched_pruned", s.sched_pruned);
  ISEX_COUNT_ADD("customize.rms.incumbent_updates", s.incumbent_updates);
  ISEX_COUNT_ADD("customize.rms.front_entries", s.front_entries());
  ISEX_COUNT_ADD("customize.rms.test_points", s.tests.total_points());

  RmsResult res;
  res.nodes_visited = s.nodes;
  res.found_feasible = s.found;
  res.completed = !s.truncated;
  if (s.found) {
    res.assignment = s.best_assignment;
    res.schedulable = true;
  } else {
    res.assignment.assign(ts.size(), 0);
    res.schedulable = false;
  }
  res.utilization = ts.utilization(res.assignment);
  res.area_used = ts.area(res.assignment);
  if (s.truncated) {
    res.status = robust::Status::kBudgetTruncated;
    // Lower bound: the root node's area-aware bound, i.e. the best suffix
    // front entry within the area budget (schedulability ignored). It is
    // never below "every task at its fastest configuration".
    double lb = s.min_util_suffix[0];
    const double front_lb =
        front_min_util(s.fronts[0], area_budget + s.area_slack);
    if (std::isfinite(front_lb)) lb = std::max(lb, front_lb * (1 - kBoundSlack));
    res.optimality_gap =
        lb > 0 ? std::max(0.0, (res.utilization - lb) / lb) : 0.0;
    ISEX_COUNT("customize.rms.budget_truncations");
  }
  return res;
}

robust::Outcome<RmsResult> select_rms_bounded(const rt::TaskSet& ts,
                                              double area_budget,
                                              const RmsOptions& opts) {
  robust::Outcome<RmsResult> out;
  std::string err = ts.validate();
  if (err.empty())
    for (std::size_t i = 1; i < ts.size(); ++i)
      if (ts.tasks[i].period < ts.tasks[i - 1].period) {
        err = "tasks not sorted by increasing period (RMS priority order)";
        break;
      }
  if (!err.empty()) {
    out.status = robust::Status::kInfeasible;
    out.detail = err;
    if (opts.budget != nullptr) out.budget = opts.budget->report();
    return out;
  }
  out.value = select_rms(ts, area_budget, opts);
  out.status = out.value.status;
  out.optimality_gap = out.value.optimality_gap;
  if (out.value.completed && !out.value.found_feasible) {
    out.status = robust::Status::kInfeasible;
    out.detail =
        "no RMS-schedulable assignment within the area budget; value is the "
        "all-software assignment";
  }
  if (opts.budget != nullptr) out.budget = opts.budget->report();
  return out;
}

}  // namespace isex::customize
