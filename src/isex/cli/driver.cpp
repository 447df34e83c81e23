// isex — command-line driver over the library's public API.
//
//   isex list
//   isex curve <benchmark> [--csv]
//   isex select <U0> <budget-fraction> <edf|rms> <benchmark>...
//   isex pareto <benchmark> <eps>
//   isex iterative <U0> <benchmark>...
//   isex reconfig <num-loops> <seed>
//   isex inject <U0> <budget-fraction> <edf|rms> <soft|firm|mode> <factor>
//               <benchmark>...
//   isex margin <U0> <edf|rms> <benchmark>...
//   isex trace <benchmark>... [-o trace.json] [--csv] [--u0 U]
//              [--budget-fraction f] [--policy edf|rms]
//   isex certify <benchmark>... [--u0 U] [--budget-fraction f]
//               [-o report.json]
//   isex serve [--socket path] [--queue-capacity N] [--shed-depth N]
//              [--max-request-bytes N] [--cache-entries N] [--cache-bytes N]
//              [--stats-file f.json] [--stats-interval s]
//              [--journal-capacity N] [--crash-dump f.bin]
//              [--workers N] [--watchdog s] [--chaos p] ...
//   isex lift <binary> [-o dfg.json] [--raw [--vaddr A]]
//             [--fixture <name>] [--emit-fixture <name> <path>]
//     (untrusted-binary frontend: bounded ELF32 read, total RV32I decode,
//      CFG recovery, DFG lift, certification, config curve)
//   isex tail <journal.bin> [-n N] [--rid R] [--trace out.json] [--csv]
//     (accepts a crash-dump base name; resolves the newest <base>.<pid>)
//
// Global flags, accepted anywhere on the command line:
//   --metrics[=file.json]   dump the obs metrics registry after the command
//   --time-budget <t>       wall-clock budget for the solvers: "50ms", "2s",
//                           or a plain number of seconds
//   --node-budget <n>       work budget in solver charges: "500K", "2M", "1G"
//   --mem-budget <b>        accounted-memory budget: "64M", "1G" (bytes)
//   --threads <n>           solver worker threads (default: hardware
//                           concurrency, or ISEX_THREADS; 1 = exact legacy
//                           serial execution)
//   --strict                exit 3 when any solver result is not Exact
//   --paranoid              run the witness checkers on every solver answer
//                           (certify/) and exit 4 on any certificate failure
//
// With a budget set, `select` runs the graceful-degradation ladder
// (robust::select_*_with_fallback) and `iterative` threads the budget
// through MLGP; each prints the outcome status, optimality gap, and budget
// report. Without budget flags every command behaves exactly as before.
//
// Examples:
//   isex select 1.08 0.5 edf crc32 sha djpeg blowfish
//   isex --time-budget 50ms select 1.08 0.5 rms crc32 sha djpeg blowfish
//   isex pareto g721decode 0.69
//   isex inject 1.05 0.5 edf mode 1.25 crc32 sha djpeg blowfish
//   isex --metrics=metrics.json select 1.08 0.5 edf crc32 sha
//
// Exit codes: 0 success, 1 analysis result is negative (not schedulable),
// 2 usage / argument / I/O error, 3 strict-mode budget failure,
// 4 certificate failure (--paranoid or `isex certify`), 128+signal when a
// one-shot command is interrupted by SIGINT/SIGTERM (130/143) — after the
// in-flight solver stops at its budget stride and --metrics/-o outputs are
// flushed (file outputs are written atomically via tmp+rename, so an
// interrupted run never leaves a truncated artifact). `isex serve` instead
// drains gracefully and exits 0 on the first signal.
#include "isex/cli/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <sys/stat.h>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "isex/certify/ci.hpp"
#include "isex/certify/dfg.hpp"
#include "isex/certify/pareto.hpp"
#include "isex/certify/schedule.hpp"
#include "isex/frontend/fixtures.hpp"
#include "isex/frontend/lift.hpp"
#include "isex/customize/select_edf.hpp"
#include "isex/customize/select_rms.hpp"
#include "isex/faults/sensitivity.hpp"
#include "isex/ise/enumerate.hpp"
#include "isex/ise/single_cut.hpp"
#include "isex/mlgp/iterative.hpp"
#include "isex/mlgp/mlgp.hpp"
#include "isex/obs/journal.hpp"
#include "isex/obs/trace.hpp"
#include "isex/pareto/intra.hpp"
#include "isex/reconfig/algorithms.hpp"
#include "isex/robust/fallback.hpp"
#include "isex/rtreconfig/algorithms.hpp"
#include "isex/serve/server.hpp"
#include "isex/util/file.hpp"
#include "isex/util/json_writer.hpp"
#include "isex/util/table.hpp"
#include "isex/util/task_pool.hpp"
#include "isex/workloads/tasks.hpp"

namespace isex::cli {

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  isex list\n"
      "  isex curve <benchmark> [--csv]\n"
      "  isex select <U0> <budget-fraction> <edf|rms> <benchmark>...\n"
      "  isex pareto <benchmark> <eps>\n"
      "  isex iterative <U0> <benchmark>...\n"
      "  isex reconfig <num-loops> <seed>\n"
      "  isex inject <U0> <budget-fraction> <edf|rms> <soft|firm|mode> "
      "<factor> <benchmark>...\n"
      "  isex margin <U0> <edf|rms> <benchmark>...\n"
      "  isex trace <benchmark>... [-o trace.json] [--csv] [--u0 U]\n"
      "             [--budget-fraction f] [--policy edf|rms]\n"
      "  isex certify <benchmark>... [--u0 U] [--budget-fraction f]\n"
      "              [-o report.json]\n"
      "  isex serve [--socket path] [--queue-capacity N] [--shed-depth N]\n"
      "             [--workers N] [--watchdog s] [--watchdog-grace s]\n"
      "             [--drain-timeout s] [--poison-kills K]\n"
      "             [--breaker-respawns N] [--breaker-window s]\n"
      "             [--breaker-cooldown s] [--worker-mem BYTES]\n"
      "             [--worker-cpu s] [--chaos p] [--chaos-seed S]\n"
      "             [--max-request-bytes N] [--cache-entries N] "
      "[--cache-bytes N]\n"
      "             [--stats-file f.json] [--stats-interval s]\n"
      "             [--journal-capacity N] [--crash-dump f.bin]\n"
      "  isex lift <binary> [-o dfg.json] [--raw [--vaddr A]]\n"
      "            [--fixture <name>] [--emit-fixture <name> <path>]\n"
      "  isex tail <journal.bin> [-n N] [--rid R] [--trace out.json] "
      "[--csv]\n"
      "global flags:\n"
      "  --metrics[=file.json]  dump the metrics registry after the command\n"
      "  --time-budget <t>      solver wall-clock budget (e.g. 50ms, 2s)\n"
      "  --node-budget <n>      solver work budget in charges (e.g. 500K, 2M)\n"
      "  --mem-budget <b>       solver memory budget in bytes (e.g. 64M, 1G)\n"
      "  --threads <n>          solver worker threads (default: hardware\n"
      "                         concurrency or ISEX_THREADS; 1 = serial)\n"
      "  --strict               exit 3 when any solver result is not Exact\n"
      "  --paranoid             certify every solver answer; exit 4 on any\n"
      "                         certificate failure\n");
  return 2;
}

/// Per-invocation state shared by the commands: the (optional) execution
/// budget and the worst solver status seen, which --strict turns into the
/// exit code.
struct Ctx {
  robust::Budget budget;
  double time_budget_seconds = 0;
  bool has_budget = false;
  bool armed = false;
  bool strict = false;
  bool paranoid = false;
  bool cert_failed = false;
  robust::Status worst = robust::Status::kExact;

  /// Records a witness-checker verdict; failures print one line to stderr
  /// and (under --paranoid) turn into exit code 4 at the end of run().
  void note_certificate(const certify::CertifyReport& rep) {
    if (rep.ok()) return;
    cert_failed = true;
    std::fprintf(stderr, "certificate: %s\n", rep.summary().c_str());
  }

  /// The wall-clock limit is armed here, at the first solver call, not at
  /// flag-parse time — workload construction must not eat the budget.
  robust::Budget* budget_ptr() {
    if (!has_budget) return nullptr;
    if (!armed) {
      if (time_budget_seconds > 0) budget.set_time_budget(time_budget_seconds);
      armed = true;
    }
    return &budget;
  }

  void note(robust::Status s) {
    auto rank = [](robust::Status st) {
      switch (st) {
        case robust::Status::kExact: return 0;
        case robust::Status::kDegraded: return 1;
        case robust::Status::kBudgetTruncated: return 2;
        case robust::Status::kInfeasible: return 3;
      }
      return 0;
    };
    if (rank(s) > rank(worst)) worst = s;
  }
};

// --- argument validation -----------------------------------------------------

double parse_double(const char* what, const std::string& s) {
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != s.size())
    throw std::invalid_argument(std::string(what) + ": expected a number, got '" +
                                s + "'");
  return v;
}

int parse_int(const char* what, const std::string& s) {
  std::size_t pos = 0;
  int v = 0;
  try {
    v = std::stoi(s, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != s.size())
    throw std::invalid_argument(std::string(what) +
                                ": expected an integer, got '" + s + "'");
  return v;
}

std::uint64_t parse_u64(const char* what, const std::string& s) {
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    // stoull quietly wraps negative input; reject it explicitly.
    if (s.find('-') == std::string::npos) v = std::stoull(s, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != s.size())
    throw std::invalid_argument(std::string(what) +
                                ": expected an unsigned integer, got '" + s +
                                "'");
  return v;
}

/// "50ms", "2s", or a plain number of seconds; must be > 0.
double parse_time_budget(const std::string& s) {
  std::string num = s;
  double scale = 1.0;
  if (s.size() > 2 && s.compare(s.size() - 2, 2, "ms") == 0) {
    num = s.substr(0, s.size() - 2);
    scale = 1e-3;
  } else if (s.size() > 1 && s.back() == 's') {
    num = s.substr(0, s.size() - 1);
  }
  const double v = parse_double("--time-budget", num) * scale;
  if (v <= 0)
    throw std::invalid_argument("--time-budget must be > 0 (got " + s + ")");
  return v;
}

/// Plain count or K/M/G decimal suffix; must be > 0.
long long parse_scaled_count(const char* what, const std::string& s) {
  std::string num = s;
  long long scale = 1;
  if (!s.empty()) {
    const char c = s.back();
    if (c == 'K' || c == 'k') scale = 1000LL;
    if (c == 'M' || c == 'm') scale = 1000LL * 1000;
    if (c == 'G' || c == 'g') scale = 1000LL * 1000 * 1000;
    if (scale != 1) num = s.substr(0, s.size() - 1);
  }
  const double v = parse_double(what, num);
  if (v <= 0)
    throw std::invalid_argument(std::string(what) + " must be > 0 (got " + s +
                                ")");
  return static_cast<long long>(v * static_cast<double>(scale));
}

double parse_u0(const std::string& s) {
  const double u0 = parse_double("U0", s);
  if (u0 <= 0)
    throw std::invalid_argument("U0 must be > 0 (got " + s + ")");
  return u0;
}

double parse_budget_fraction(const std::string& s) {
  const double f = parse_double("budget-fraction", s);
  if (f < 0 || f > 1)
    throw std::invalid_argument("budget-fraction must be in [0, 1] (got " + s +
                                ")");
  return f;
}

using util::write_file_atomic;

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t cur = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = cur;
    }
  }
  return row[b.size()];
}

/// Throws with a nearest-name suggestion on unknown benchmark names, so typos
/// fail with a one-line hint instead of an unexplained abort.
void require_benchmarks(const std::vector<std::string>& names) {
  const auto& known = workloads::benchmark_names();
  for (const auto& n : names) {
    if (std::find(known.begin(), known.end(), n) != known.end()) continue;
    const auto* best = &known.front();
    std::size_t best_d = edit_distance(n, *best);
    for (const auto& k : known) {
      const std::size_t d = edit_distance(n, k);
      if (d < best_d) {
        best_d = d;
        best = &k;
      }
    }
    throw std::invalid_argument("unknown benchmark '" + n + "'; did you mean '" +
                                *best + "'? (see `isex list`)");
  }
}

rt::Policy parse_policy(const std::string& s) {
  if (s == "edf") return rt::Policy::kEdf;
  if (s == "rms") return rt::Policy::kRms;
  throw std::invalid_argument("policy must be 'edf' or 'rms', got '" + s + "'");
}

rt::MissPolicy parse_miss_policy(const std::string& s) {
  if (s == "soft") return rt::MissPolicy::kSoft;
  if (s == "firm") return rt::MissPolicy::kFirm;
  if (s == "mode") return rt::MissPolicy::kModeChange;
  throw std::invalid_argument("miss policy must be 'soft', 'firm' or 'mode', got '" +
                              s + "'");
}

void print_outcome_line(const robust::Status status, double gap,
                        const robust::BudgetReport& report,
                        const std::string& detail) {
  std::printf("outcome: %s, gap <= %.4f, %.1fms elapsed, %ld nodes%s%s%s\n",
              robust::to_string(status), gap, report.elapsed_seconds * 1e3,
              report.nodes_charged,
              report.exhausted() ? ", exhausted: " : "",
              report.exhausted() ? report.reason().c_str() : "",
              detail.empty() ? "" : (" [" + detail + "]").c_str());
}

/// Budget-free runs call the legacy solvers (bit-identical results); with a
/// budget the graceful-degradation ladder runs and the outcome is printed
/// and recorded for --strict.
customize::SelectionResult select_for(Ctx& ctx, const rt::TaskSet& ts,
                                      double budget, rt::Policy policy) {
  if (!ctx.has_budget) {
    if (policy == rt::Policy::kEdf) {
      const auto r = customize::select_edf(ts, budget);
      if (ctx.paranoid)
        ctx.note_certificate(certify::check_selection_edf(ts, budget, r));
      return r;
    }
    const auto r = customize::select_rms(ts, budget);
    if (ctx.paranoid)
      ctx.note_certificate(certify::check_selection_rms(ts, budget, r));
    return r;
  }
  robust::FallbackOptions fb;
  if (ctx.paranoid) fb.certify_pool_cap = -1;
  if (policy == rt::Policy::kEdf) {
    const auto out = robust::select_edf_with_fallback(
        ts, budget, customize::EdfOptions{}, ctx.budget_ptr(), fb);
    ctx.note(out.status);
    ctx.note_certificate(out.certificate);
    print_outcome_line(out.status, out.optimality_gap, out.budget, out.detail);
    return out.value;
  }
  const auto out = robust::select_rms_with_fallback(
      ts, budget, customize::RmsOptions{}, ctx.budget_ptr(), fb);
  ctx.note(out.status);
  ctx.note_certificate(out.certificate);
  print_outcome_line(out.status, out.optimality_gap, out.budget, out.detail);
  return out.value;
}

// --- commands ----------------------------------------------------------------

int cmd_list() {
  util::Table t({"benchmark", "source"});
  for (const auto& name : workloads::benchmark_names())
    t.row().cell(name).cell(std::string(workloads::benchmark_source(name)));
  t.print();
  return 0;
}

int cmd_curve(const std::string& bench, bool csv) {
  require_benchmarks({bench});
  const auto& task = workloads::cached_task(bench);
  util::Table t({"area", "cycles", "speedup"});
  for (const auto& cfg : task.configs)
    t.row().cell(cfg.area, 2).cell(cfg.cycles, 0).cell(
        task.sw_cycles() / cfg.cycles, 3);
  if (csv)
    t.print_csv(std::cout);
  else
    t.print();
  return 0;
}

int cmd_select(Ctx& ctx, double u0, double frac, rt::Policy policy,
               const std::vector<std::string>& benches) {
  require_benchmarks(benches);
  auto ts = workloads::make_taskset(benches, u0);
  ts.sort_by_period();
  const double budget = frac * ts.max_area();
  const auto r = select_for(ctx, ts, budget, policy);
  util::Table t({"task", "period", "config", "cycles", "area"});
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const auto& cfg =
        ts.tasks[i].configs[static_cast<std::size_t>(r.assignment[i])];
    t.row()
        .cell(ts.tasks[i].name)
        .cell(ts.tasks[i].period, 0)
        .cell(r.assignment[i])
        .cell(cfg.cycles, 0)
        .cell(cfg.area, 1);
  }
  t.print();
  std::printf("\nU = %.4f (%s), area %.1f / %.1f budget\n", r.utilization,
              r.schedulable ? "schedulable" : "NOT schedulable", r.area_used,
              budget);
  return r.schedulable ? 0 : 1;
}

int cmd_pareto(const std::string& bench, double eps) {
  require_benchmarks({bench});
  if (eps <= 0) throw std::invalid_argument("eps must be > 0");
  const auto& lib = hw::CellLibrary::standard_018um();
  auto prog = workloads::make_benchmark(bench);
  const auto counts = prog.wcet_counts(ir::Program::sum_cost(
      [&lib](const ir::Node& n) { return lib.sw_cycles(n); }));
  const auto raw =
      select::selection_items(prog, counts, lib, select::CurveOptions{});
  std::vector<std::pair<double, double>> ag;
  for (const auto& it : raw) ag.emplace_back(it.area, it.gain);
  const auto items = pareto::quantize_items(ag, 0.25);
  const double base = select::base_cycles(prog, counts, lib);
  const auto exact = pareto::exact_workload_front(items, base);
  const auto approx = pareto::approx_workload_front(items, base, eps);
  std::printf("exact front: %zu points; eps=%.2f front: %zu points "
              "(cover=%s)\n\n",
              exact.size(), eps, approx.size(),
              pareto::eps_covers(exact, approx, eps) ? "yes" : "NO");
  util::Table t({"cost(0.25 adders)", "workload"});
  for (const auto& p : approx) t.row().cell(p.cost, 0).cell(p.value, 0);
  t.print();
  return 0;
}

int cmd_iterative(Ctx& ctx, double u0,
                  const std::vector<std::string>& benches) {
  require_benchmarks(benches);
  const auto& lib = hw::CellLibrary::standard_018um();
  std::vector<mlgp::IterTask> tasks;
  for (const auto& n : benches)
    tasks.emplace_back(n, workloads::make_benchmark(n), 0.0);
  for (auto& t : tasks) {
    const double wcet = t.program.wcet(ir::Program::sum_cost(
        [&lib](const ir::Node& n) { return lib.sw_cycles(n); }));
    t.period = wcet / (u0 / static_cast<double>(tasks.size()));
  }
  util::Rng rng(2007);
  mlgp::IterativeOptions opts;
  opts.budget = ctx.budget_ptr();
  const auto res = iterative_customize(tasks, lib, opts, rng);
  util::Table t({"iter", "task", "U", "area", "time(s)"});
  for (const auto& rec : res.trace)
    t.row()
        .cell(rec.iteration)
        .cell(rec.task)
        .cell(rec.utilization, 4)
        .cell(rec.area, 1)
        .cell(rec.elapsed_seconds, 3);
  t.print();
  if (ctx.has_budget) {
    ctx.note(res.status);
    print_outcome_line(res.status, res.optimality_gap, ctx.budget.report(),
                       "");
  }
  std::printf("\nfinal U = %.4f (%s), %zu CIs, area %.1f\n", res.utilization,
              res.met_target ? "schedulable" : "NOT schedulable",
              res.selected.size(), res.area);
  return res.met_target ? 0 : 1;
}

int cmd_reconfig(int n, std::uint64_t seed) {
  if (n <= 0) throw std::invalid_argument("num-loops must be > 0");
  util::Rng gen(seed);
  const auto p = reconfig::synthetic_problem(n, gen);
  util::Rng rng(seed + 1);
  const auto iter = reconfig::iterative_partition(p, rng);
  const auto greedy = reconfig::greedy_partition(p);
  util::Table t({"algorithm", "configs", "gain", "reconfigs", "net gain"});
  auto row = [&](const char* name, const reconfig::Solution& s) {
    t.row()
        .cell(name)
        .cell(s.num_configs())
        .cell(reconfig::raw_gain(p, s), 0)
        .cell(reconfig::count_reconfigurations(p, s))
        .cell(reconfig::net_gain(p, s), 0);
  };
  row("iterative", iter);
  row("greedy", greedy);
  if (n <= 10) {
    const auto ex = reconfig::exhaustive_partition(p);
    row("optimal", ex.solution);
  }
  t.print();
  return 0;
}

/// Fault injection against the configuration a selection run picks: inflate
/// every job by `factor` and report what each degradation policy observes.
int cmd_inject(Ctx& ctx, double u0, double frac, rt::Policy policy,
               rt::MissPolicy miss_policy, double factor,
               const std::vector<std::string>& benches) {
  require_benchmarks(benches);
  if (factor <= 0) throw std::invalid_argument("factor must be > 0");
  auto ts = workloads::make_taskset(benches, u0);
  ts.sort_by_period();
  const auto sel = select_for(ctx, ts, frac * ts.max_area(), policy);
  const double alpha_star = faults::critical_scaling(ts, sel.assignment, policy);
  const auto sim_tasks = faults::to_sim_tasks(ts, sel.assignment);

  faults::FaultModel fault;
  fault.inflation = factor;
  rt::SimOptions so;
  so.policy = policy;
  so.miss_policy = miss_policy;
  so.faults = &fault;
  so.max_misses = 1024;
  // Under EDF the overload falls on the latest deadline, so the horizon must
  // reach past the longest period or overruns would be invisible.
  for (const auto& s : sim_tasks)
    so.horizon = std::max({so.horizon, 2 * s.period, so.horizon_cap});
  const auto r = rt::simulate(sim_tasks, so);

  std::printf("selected U = %.4f, alpha* = %.4f, injected inflation = %.3f "
              "(%s alpha*)\n\n",
              sel.utilization, alpha_star, factor,
              factor > alpha_star ? "above" : "at or below");
  util::Table t({"task", "period", "completed", "missed", "aborted",
                 "worst resp", "resp/period"});
  for (std::size_t i = 0; i < ts.size(); ++i)
    t.row()
        .cell(ts.tasks[i].name)
        .cell(static_cast<double>(sim_tasks[i].period), 0)
        .cell(r.completed_jobs[i])
        .cell(r.missed_jobs[i])
        .cell(r.aborted_jobs[i])
        .cell(static_cast<double>(r.worst_response[i]), 0)
        .cell(static_cast<double>(r.worst_response[i]) /
                  static_cast<double>(sim_tasks[i].period),
              3);
  t.print();
  std::printf("\nhorizon %lld cycles, busy %lld, %zu degradation events, "
              "first miss at %lld\n",
              static_cast<long long>(r.horizon),
              static_cast<long long>(r.busy_cycles), r.events.size(),
              static_cast<long long>(r.misses.empty() ? -1
                                                      : r.misses.front().deadline));
  return r.all_met ? 0 : 1;
}

/// Robustness margins of the selected configurations across budget fractions:
/// per-configuration alpha* plus the area cost of alpha-robust selection.
int cmd_margin(double u0, rt::Policy policy,
               const std::vector<std::string>& benches) {
  require_benchmarks(benches);
  constexpr double kRobustAlpha = 1.1;
  auto ts = workloads::make_taskset(benches, u0);
  ts.sort_by_period();
  util::Table t({"budget", "U", "area", "alpha*", "robust alpha*",
                 "robust U"});
  bool any_robust = false;
  for (double frac : {0.25, 0.5, 0.75, 1.0}) {
    const double budget = frac * ts.max_area();
    const auto rob =
        faults::alpha_robust_select(ts, budget, kRobustAlpha, policy);
    any_robust = any_robust || rob.robust.schedulable;
    t.row()
        .cell(frac, 2)
        .cell(rob.nominal.utilization, 4)
        .cell(rob.nominal.area_used, 1)
        .cell(rob.alpha_star_nominal, 4)
        .cell(rob.alpha_star_robust, 4)
        .cell(rob.robust.schedulable ? rob.robust.utilization : -1, 4);
  }
  t.print();
  const double area_nominal = faults::min_robust_area(ts, 1.0, policy);
  const double area_robust = faults::min_robust_area(ts, kRobustAlpha, policy);
  std::printf("\nalpha* = critical WCET scaling of the selected "
              "configuration\nminimum schedulable area: %.2f nominal, %.2f "
              "at alpha=%.1f -> robustness costs %.2f extra "
              "adder-equivalents%s\n",
              area_nominal, area_robust, kRobustAlpha,
              (area_robust >= 0 && area_nominal >= 0)
                  ? area_robust - area_nominal
                  : -1.0,
              area_robust < 0 ? " (infeasible at full Max_Area)" : "");
  return any_robust ? 0 : 1;
}

/// End-to-end trace of the toolchain on one task set: enumeration + curve
/// construction + selection render as wall-clock spans (pid 1) and the
/// resulting EDF/RMS schedule as a per-task Gantt chart in virtual time
/// (pid 2). Open the output at ui.perfetto.dev or chrome://tracing.
int cmd_trace(Ctx& ctx, std::vector<std::string> rest) {
  std::string out_path = "trace.json";
  bool csv = false;
  double u0 = 1.05, frac = 0.5;
  rt::Policy policy = rt::Policy::kEdf;
  std::vector<std::string> benches;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& a = rest[i];
    auto next = [&](const char* what) -> const std::string& {
      if (i + 1 >= rest.size())
        throw std::invalid_argument(std::string(what) + " needs a value");
      return rest[++i];
    };
    if (a == "-o") out_path = next("-o");
    else if (a == "--csv") csv = true;
    else if (a == "--u0") u0 = parse_u0(next("--u0"));
    else if (a == "--budget-fraction")
      frac = parse_budget_fraction(next("--budget-fraction"));
    else if (a == "--policy") policy = parse_policy(next("--policy"));
    else benches.push_back(a);
  }
  if (benches.empty())
    throw std::invalid_argument("trace: at least one benchmark required");
  require_benchmarks(benches);

  auto& tb = obs::TraceBuffer::global();
  tb.clear();
  tb.set_enabled(true);

  auto ts = workloads::make_taskset(benches, u0);
  ts.sort_by_period();
  const double budget = frac * ts.max_area();
  const auto sel = select_for(ctx, ts, budget, policy);
  const auto sim_tasks = faults::to_sim_tasks(ts, sel.assignment);
  rt::SimOptions so;
  so.policy = policy;
  for (const auto& s : sim_tasks)
    so.horizon = std::max(so.horizon, 4 * s.period);
  const auto r = rt::simulate(sim_tasks, so);

  tb.set_enabled(false);
  const bool wrote = write_file_atomic(out_path, [&](std::ostream& out) {
    if (csv)
      tb.write_csv(out);
    else
      tb.write_chrome_json(out);
  });
  if (!wrote) throw std::runtime_error("cannot write '" + out_path + "'");
  std::printf("U = %.4f (%s), area %.1f / %.1f budget\n", sel.utilization,
              sel.schedulable ? "schedulable" : "NOT schedulable",
              sel.area_used, budget);
  std::printf("simulated %lld cycles: %s, %zu trace events (%llu dropped) -> "
              "%s%s\n",
              static_cast<long long>(r.horizon),
              r.all_met ? "all deadlines met" : "deadline misses",
              tb.size(), static_cast<unsigned long long>(tb.dropped()),
              out_path.c_str(),
              csv ? "" : " (open at ui.perfetto.dev)");
  return sel.schedulable && r.all_met ? 0 : 1;
}

std::string certify_json(double u0, double frac,
                         const std::vector<std::pair<
                             std::string, certify::CertifyReport>>& rows,
                         const certify::CertifyReport& total) {
  util::JsonWriter w;
  w.begin_object().key("command").string("certify");
  w.key("u0").number(u0).key("budget_fraction").number(frac);
  w.key("stages").begin_object();
  for (const auto& [stage, r] : rows) {
    w.key(stage).begin_object().key("checks").integer(r.checks);
    w.key("violations").begin_array();
    for (const auto& v : r.violations)
      w.begin_object().key("check").string(v.check).key("message").string(
          v.message).end_object();
    w.end_array().end_object();
  }
  w.end_object().key("total_checks").integer(total.checks);
  w.key("total_violations").integer(total.violations.size());
  return w.key("ok").boolean(total.ok()).end_object().take();
}

/// Re-derives and certifies every solver contract on the given benchmarks:
/// per block, the enumeration pool, the optimal single cut and the MLGP
/// partition; per benchmark, the exact and approximate Pareto fronts and
/// their epsilon-cover; and across the joint task set, EDF and RMS selection
/// (with brute-force optimality spot-checks on small instances) plus the
/// Chapter 7 reconfiguration partitioners. All solver runs are bounded by
/// deterministic work caps (node budgets, not wall clocks), so two identical
/// invocations produce byte-identical reports. Exit 0 when every certificate
/// holds, 4 otherwise.
int cmd_certify(Ctx& ctx, std::vector<std::string> rest) {
  std::string out_path;
  double u0 = 1.05, frac = 0.5;
  std::vector<std::string> benches;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& a = rest[i];
    auto next = [&](const char* what) -> const std::string& {
      if (i + 1 >= rest.size())
        throw std::invalid_argument(std::string(what) + " needs a value");
      return rest[++i];
    };
    if (a == "-o") out_path = next("-o");
    else if (a == "--u0") u0 = parse_u0(next("--u0"));
    else if (a == "--budget-fraction")
      frac = parse_budget_fraction(next("--budget-fraction"));
    else benches.push_back(a);
  }
  if (benches.empty())
    throw std::invalid_argument("certify: at least one benchmark required");
  require_benchmarks(benches);

  const auto& lib = hw::CellLibrary::standard_018um();
  const long pool_cap = ctx.paranoid ? -1 : 512;
  certify::CertifyReport total;
  std::vector<std::pair<std::string, certify::CertifyReport>> rows;

  for (const auto& bench : benches) {
    certify::CertifyReport rep;
    const auto prog = workloads::make_benchmark(bench);
    for (int b = 0; b < prog.num_blocks(); ++b) {
      const ir::Dfg& dfg = prog.block(b).dfg;
      // (a) CI legality of the enumeration pool.
      ise::EnumOptions eo;
      eo.max_candidates = 20000;
      const auto pool = ise::enumerate_candidates(dfg, lib, eo, b, 1);
      certify::PoolCheckOptions po;
      po.max_full_checks = pool_cap;
      rep.merge(certify::check_candidate_pool(dfg, lib, eo.constraints, pool,
                                              po));
      // The optimal single cut, bounded by a deterministic node budget.
      robust::Budget sb;
      sb.set_node_budget(200000);
      ise::SingleCutOptions so;
      so.budget = &sb;
      const auto cut = ise::optimal_single_cut(dfg, lib, so, b, 1);
      if (cut.best)
        rep.merge(
            certify::check_candidate(dfg, lib, so.constraints, *cut.best, b));
      // (c) the MLGP partition: parts legal, disjoint, inside the regions.
      util::Rng rng(2007);
      mlgp::MlgpOptions mo;
      const auto parts = mlgp::generate_for_block(dfg, lib, mo, rng, b, 1);
      util::Bitset region(static_cast<std::size_t>(dfg.num_nodes()));
      for (const auto& reg : dfg.regions()) region |= reg;
      rep.merge(
          certify::check_partition(dfg, lib, mo.constraints, region, parts));
    }
    // Pareto fronts: staircase form, non-dominance, epsilon-cover.
    const double eps = 0.3;
    const auto counts = prog.wcet_counts(ir::Program::sum_cost(
        [&lib](const ir::Node& n) { return lib.sw_cycles(n); }));
    const auto raw =
        select::selection_items(prog, counts, lib, select::CurveOptions{});
    std::vector<std::pair<double, double>> ag;
    for (const auto& it : raw) ag.emplace_back(it.area, it.gain);
    const auto items = pareto::quantize_items(ag, 0.25);
    const double base = select::base_cycles(prog, counts, lib);
    const auto exact = pareto::exact_workload_front(items, base);
    const auto approx = pareto::approx_workload_front(items, base, eps);
    rep.merge(certify::check_front(exact, bench + " exact"));
    rep.merge(certify::check_front(approx, bench + " approx"));
    rep.merge(certify::check_eps_cover(exact, approx, eps));

    ctx.note_certificate(rep);
    total.merge(rep);
    rows.emplace_back(bench, std::move(rep));
  }

  // (b) selection feasibility and optimality witnesses on the joint task set.
  {
    certify::CertifyReport rep;
    auto ts = workloads::make_taskset(benches, u0);
    ts.sort_by_period();
    const double budget = frac * ts.max_area();
    const auto edf = customize::select_edf(ts, budget);
    rep.merge(certify::check_selection_edf(ts, budget, edf));
    rep.merge(certify::spot_check_edf(
        ts, budget, customize::EdfOptions{}.area_grid, edf));
    customize::RmsOptions ro;
    ro.max_nodes = 500000;  // deterministic cap; truncation is certified too
    const auto rms = customize::select_rms(ts, budget, ro);
    rep.merge(certify::check_selection_rms(ts, budget, rms));
    rep.merge(certify::spot_check_rms(ts, budget, rms));

    // Chapter 7 reconfiguration over the same configuration menus: map each
    // task's configurations to CIS versions (configs[0] is the zero-area
    // software point, exactly versions[0]'s contract).
    rtreconfig::Problem p;
    double max_cfg_area = 0;
    double min_period = ts.tasks.front().period;
    for (const rt::Task& t : ts.tasks) {
      rtreconfig::TaskCis tc;
      tc.name = t.name;
      tc.period = t.period;
      for (std::size_t j = 0; j < t.configs.size() && j < 4; ++j) {
        tc.versions.push_back({t.configs[j].area, t.configs[j].cycles});
        max_cfg_area = std::max(max_cfg_area, t.configs[j].area);
      }
      min_period = std::min(min_period, t.period);
      p.tasks.push_back(std::move(tc));
    }
    p.max_area = std::max(1.0, frac * max_cfg_area);
    p.reconfig_cost = 0.02 * min_period;
    rep.merge(certify::check_rtreconfig(p, rtreconfig::dp_partition(p)));
    rep.merge(certify::check_rtreconfig(p, rtreconfig::static_partition(p)));

    ctx.note_certificate(rep);
    total.merge(rep);
    rows.emplace_back("taskset", std::move(rep));
  }

  util::Table t({"stage", "checks", "violations"});
  for (const auto& [name, rep] : rows)
    t.row().cell(name).cell(rep.checks).cell(
        static_cast<int>(rep.violations.size()));
  t.print();
  std::printf("\ncertify: %s\n", total.summary().c_str());
  if (!out_path.empty()) {
    const std::string json = certify_json(u0, frac, rows, total);
    const bool wrote = write_file_atomic(
        out_path, [&](std::ostream& out) { out << json << '\n'; });
    if (!wrote) throw std::runtime_error("cannot write '" + out_path + "'");
  }
  return total.ok() ? 0 : 4;
}

/// The long-lived customization-as-a-service daemon (see serve/server.hpp).
/// Global budget flags become the server's per-request defaults; --paranoid
/// turns on exhaustive certification for every request.
int cmd_serve(Ctx& ctx, std::vector<std::string> rest) {
  serve::ServerOptions so;
  so.paranoid = ctx.paranoid;
  if (ctx.has_budget) {
    const robust::BudgetReport rep = ctx.budget.report();
    if (ctx.time_budget_seconds > 0)
      so.default_time_budget_seconds = ctx.time_budget_seconds;
    if (rep.node_budget >= 0) so.default_node_budget = rep.node_budget;
    if (rep.mem_budget_bytes > 0)
      so.default_mem_budget_bytes = rep.mem_budget_bytes;
  }
  std::string socket_path;
  std::string crash_dump_path;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& a = rest[i];
    auto next = [&](const char* what) -> const std::string& {
      if (i + 1 >= rest.size())
        throw std::invalid_argument(std::string(what) + " needs a value");
      return rest[++i];
    };
    if (a == "--socket") socket_path = next("--socket");
    else if (a == "--queue-capacity")
      so.queue_capacity = parse_int("--queue-capacity", next("--queue-capacity"));
    else if (a == "--shed-depth") {
      // One knob for the two-rung policy: shed at N, shed harder at 2N.
      so.shed1_depth = parse_int("--shed-depth", next("--shed-depth"));
      so.shed2_depth = 2 * so.shed1_depth;
    } else if (a == "--max-request-bytes")
      so.limits.max_request_bytes = static_cast<std::size_t>(parse_scaled_count(
          "--max-request-bytes", next("--max-request-bytes")));
    else if (a == "--cache-entries")
      so.cache.max_entries = static_cast<std::size_t>(
          parse_int("--cache-entries", next("--cache-entries")));
    else if (a == "--cache-bytes")
      so.cache.max_bytes = static_cast<std::size_t>(
          parse_scaled_count("--cache-bytes", next("--cache-bytes")));
    else if (a == "--stats-file")
      so.stats_path = next("--stats-file");
    else if (a == "--stats-interval")
      so.stats_interval_seconds =
          parse_double("--stats-interval", next("--stats-interval"));
    else if (a == "--journal-capacity")
      obs::Journal::global().set_capacity(static_cast<std::size_t>(
          parse_scaled_count("--journal-capacity", next("--journal-capacity"))));
    else if (a == "--crash-dump")
      crash_dump_path = next("--crash-dump");
    else if (a == "--workers")
      so.workers = parse_int("--workers", next("--workers"));
    else if (a == "--watchdog")
      so.watchdog_seconds = parse_double("--watchdog", next("--watchdog"));
    else if (a == "--watchdog-grace")
      so.watchdog_grace_seconds =
          parse_double("--watchdog-grace", next("--watchdog-grace"));
    else if (a == "--drain-timeout")
      so.drain_timeout_seconds =
          parse_double("--drain-timeout", next("--drain-timeout"));
    else if (a == "--poison-kills")
      so.poison_kill_threshold =
          parse_int("--poison-kills", next("--poison-kills"));
    else if (a == "--breaker-respawns")
      so.breaker_max_respawns =
          parse_int("--breaker-respawns", next("--breaker-respawns"));
    else if (a == "--breaker-window")
      so.breaker_window_seconds =
          parse_double("--breaker-window", next("--breaker-window"));
    else if (a == "--breaker-cooldown")
      so.breaker_cooldown_seconds =
          parse_double("--breaker-cooldown", next("--breaker-cooldown"));
    else if (a == "--chaos")
      so.chaos_probability = parse_double("--chaos", next("--chaos"));
    else if (a == "--chaos-seed")
      so.chaos_seed = parse_u64("--chaos-seed", next("--chaos-seed"));
    else if (a == "--worker-mem")
      so.worker_mem_limit_bytes = static_cast<std::size_t>(
          parse_scaled_count("--worker-mem", next("--worker-mem")));
    else if (a == "--worker-cpu")
      so.worker_cpu_limit_seconds = static_cast<long>(
          parse_int("--worker-cpu", next("--worker-cpu")));
    else
      throw std::invalid_argument("serve: unknown flag '" + a + "'");
  }
  if (so.queue_capacity <= 0)
    throw std::invalid_argument("--queue-capacity must be > 0");
  if (so.shed1_depth <= 0 || so.shed2_depth < so.shed1_depth)
    throw std::invalid_argument("--shed-depth must be > 0");
  if (so.stats_interval_seconds < 0)
    throw std::invalid_argument("--stats-interval must be >= 0");
  if (so.workers < 0 || so.workers > 256)
    throw std::invalid_argument("--workers must be in [0, 256]");
  if (so.chaos_probability < 0 || so.chaos_probability > 1)
    throw std::invalid_argument("--chaos must be a probability in [0, 1]");
  if (so.chaos_probability > 0 && so.workers == 0)
    throw std::invalid_argument("--chaos requires --workers > 0");
  if (so.poison_kill_threshold < 1)
    throw std::invalid_argument("--poison-kills must be >= 1");
  if (so.watchdog_seconds < 0 || so.watchdog_grace_seconds < 0 ||
      so.drain_timeout_seconds < 0 || so.breaker_window_seconds <= 0 ||
      so.breaker_cooldown_seconds < 0 || so.breaker_max_respawns < 1)
    throw std::invalid_argument("serve: supervision flags must be positive");
  if (!so.stats_path.empty() && so.stats_interval_seconds <= 0)
    so.stats_interval_seconds = 10;  // --stats-file alone: sane default cadence
  if (!crash_dump_path.empty()) {
    // A daemon death must leave the flight recorder behind: dump the last
    // capacity() records to <path>.<pid> on SIGABRT/SIGSEGV/etc. Workers
    // inherit the same base and dump to their own pids, so no two
    // processes ever clobber one dump file.
    obs::set_crash_dump_path(crash_dump_path.c_str());
    obs::install_crash_handler();
    so.crash_dump_path = crash_dump_path;
  }

  serve::Server server(so);
  const int rc = socket_path.empty() ? server.run(0, 1)
                                     : serve::run_unix_socket(server, socket_path);
  // A graceful drain is the intended shutdown: absorb the signal so the
  // one-shot 128+sig mapping in run() doesn't re-report it as an interrupt.
  serve::consume_pending_signal();
  robust::clear_global_cancel();
  return rc;
}

/// `isex lift <binary>`: the untrusted-binary frontend, end to end — bounded
/// file read, ELF32 parse, total RV32I decode, basic-block recovery, DFG
/// lift, independent certification, and finally the same identification /
/// selection pipeline the synthetic benchmarks go through (candidate
/// enumeration + config curve). `-o` writes the lifted blocks in serve's
/// inline-DFG JSON node format, so a lifted block can be pasted straight
/// into an `isex serve` request.
int cmd_lift(Ctx& ctx, std::vector<std::string> rest) {
  std::string path, out_path, fixture_name, emit_name;
  bool raw = false;
  std::uint32_t vaddr = 0x10000;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& a = rest[i];
    auto next = [&](const char* what) -> const std::string& {
      if (i + 1 >= rest.size())
        throw std::invalid_argument(std::string(what) + " needs a value");
      return rest[++i];
    };
    if (a == "-o") out_path = next("-o");
    else if (a == "--raw") raw = true;
    else if (a == "--vaddr") {
      const std::string& v = next("--vaddr");
      std::size_t pos = 0;
      unsigned long parsed = 0;
      try {
        parsed = std::stoul(v, &pos, 0);  // accepts 0x... and decimal
      } catch (const std::exception&) {
        pos = 0;
      }
      if (pos != v.size() || parsed > 0xfffffffful)
        throw std::invalid_argument("--vaddr: expected a 32-bit address, got '" +
                                    v + "'");
      vaddr = static_cast<std::uint32_t>(parsed);
    } else if (a == "--fixture") {
      fixture_name = next("--fixture");
    } else if (a == "--emit-fixture") {
      emit_name = next("--emit-fixture");
    } else if (!a.empty() && a[0] == '-') {
      throw std::invalid_argument("lift: unknown flag '" + a + "'");
    } else {
      if (!path.empty())
        throw std::invalid_argument("lift: more than one input path");
      path = a;
    }
  }

  const auto find_fixture = [](const std::string& name)
      -> const frontend::Fixture* {
    for (const frontend::Fixture& f : frontend::fixtures())
      if (f.name == name) return &f;
    return nullptr;
  };

  if (!emit_name.empty()) {
    // `--emit-fixture <name> <path>`: write the in-tree fixture ELF so CI
    // (and users) can exercise the file path end to end.
    const frontend::Fixture* f = find_fixture(emit_name);
    if (f == nullptr)
      throw std::invalid_argument("lift: unknown fixture '" + emit_name +
                                  "' (have: crc32 sha dijkstra adpcm_enc "
                                  "stringsearch)");
    if (path.empty())
      throw std::invalid_argument("lift --emit-fixture needs an output path");
    const bool ok = write_file_atomic(path, [&](std::ostream& out) {
      out.write(reinterpret_cast<const char*>(f->elf.data()),
                static_cast<std::streamsize>(f->elf.size()));
    });
    if (!ok) {
      std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
      return 2;
    }
    std::printf("wrote fixture %s (%zu bytes) to %s\n", f->name.c_str(),
                f->elf.size(), path.c_str());
    return 0;
  }

  frontend::LiftOptions lo;
  lo.budget = ctx.budget_ptr();
  std::string name;
  frontend::LiftResult lr = frontend::FrontendError{};
  if (!fixture_name.empty()) {
    const frontend::Fixture* f = find_fixture(fixture_name);
    if (f == nullptr)
      throw std::invalid_argument("lift: unknown fixture '" + fixture_name +
                                  "'");
    name = "fixture:" + f->name;
    lr = frontend::lift_elf(f->elf, name, lo);
  } else {
    if (path.empty())
      throw std::invalid_argument(
          "lift: an input path (or --fixture <name>) is required");
    name = path;
    const util::FileReadResult file =
        util::read_file_bounded(path, lo.limits.max_file_bytes);
    if (!file.ok) {
      std::fprintf(stderr, "error: lift: %s\n", file.error.c_str());
      return 2;
    }
    lr = raw ? frontend::lift_raw(file.data, vaddr, name, lo)
             : frontend::lift_elf(file.data, name, lo);
  }
  if (const auto* e = std::get_if<frontend::FrontendError>(&lr)) {
    std::fprintf(stderr, "error: lift: %s: %s\n", name.c_str(),
                 e->render().c_str());
    return e->code == frontend::FrontendErrorCode::kBudget && ctx.strict ? 3
                                                                         : 2;
  }
  frontend::Lifted& lifted = std::get<frontend::Lifted>(lr);
  const ir::Program& prog = lifted.program;
  const frontend::LiftStats& st = lifted.stats;

  // Independent certification before any solver sees the graphs: structural
  // well-formedness of every block, then CI legality of the enumeration pool
  // each block feeds the selection stage (uncapped under --paranoid).
  const auto& lib = hw::CellLibrary::standard_018um();
  certify::CertifyReport rep = certify::check_program(prog);
  ise::EnumOptions eo;
  eo.max_candidates = 20000;
  certify::PoolCheckOptions po;
  po.max_full_checks = ctx.paranoid ? -1 : 512;
  for (int b = 0; b < prog.num_blocks(); ++b) {
    const auto pool =
        ise::enumerate_candidates(prog.block(b).dfg, lib, eo, b, 1);
    rep.merge(
        certify::check_candidate_pool(prog.block(b).dfg, lib, eo.constraints,
                                      pool, po));
  }
  ctx.note_certificate(rep);

  std::printf("lifted %s: %ld instructions (%ld illegal), %d blocks, "
              "%ld nodes, %ld operations\n",
              name.c_str(), st.decoded_instructions, st.illegal_instructions,
              st.blocks, st.nodes, st.operations);
  std::printf("certificate: %s\n", rep.summary().c_str());

  // Op mix over all blocks — the statistic the fixture cross-validation and
  // the calibrated generators are compared on.
  long mix[ir::kNumOpcodes] = {};
  for (const auto& blk : prog.blocks())
    for (const auto& node : blk.dfg.nodes())
      ++mix[static_cast<int>(node.op)];
  std::string mix_line = "op mix:";
  for (int i = 0; i < ir::kNumOpcodes; ++i)
    if (mix[i] > 0)
      mix_line += " " + std::string(ir::opcode_name(static_cast<ir::Opcode>(i))) +
                  "=" + std::to_string(mix[i]);
  std::printf("%s\n", mix_line.c_str());

  util::Table bt({"block", "nodes", "ops", "live-out"});
  for (const auto& blk : prog.blocks()) {
    int louts = 0;
    for (const auto& nd : blk.dfg.nodes()) louts += nd.live_out ? 1 : 0;
    bt.row()
        .cell(blk.label)
        .cell(blk.dfg.num_nodes())
        .cell(blk.dfg.num_operations())
        .cell(louts);
  }
  bt.print();

  // The selection pipeline on the lifted program: every recovered block
  // executes once per pass (the frontend recovers no loop bounds), and the
  // curve shows the customization headroom of the binary's code.
  const auto cost = ir::Program::sum_cost(
      [&lib](const ir::Node& n) { return lib.sw_cycles(n); });
  const auto counts = prog.wcet_counts(cost);
  select::CurveOptions co;
  int max_block = 0;
  for (const auto& b : prog.blocks())
    max_block = std::max(max_block, b.dfg.num_nodes());
  if (max_block > 600) {
    co.enum_opts.max_candidates = 20000;
    co.enum_opts.max_candidate_nodes = 16;
  }
  const auto curve = select::build_config_curve(prog, counts, lib, co);
  util::Table ct({"area", "cycles", "speedup"});
  for (const auto& cfg : curve.points)
    ct.row().cell(cfg.area, 2).cell(cfg.cycles, 0).cell(
        curve.base_cycles() / cfg.cycles, 3);
  ct.print();

  if (!out_path.empty()) {
    util::JsonWriter w;
    w.begin_object().key("name").string(name);
    w.key("stats").begin_object();
    w.key("instructions").integer(st.decoded_instructions);
    w.key("illegal").integer(st.illegal_instructions);
    w.key("blocks").integer(st.blocks).key("nodes").integer(st.nodes);
    w.key("operations").integer(st.operations).end_object();
    w.key("blocks").begin_array();
    for (int b = 0; b < prog.num_blocks(); ++b) {
      const auto& blk = prog.block(b);
      w.begin_object().key("label").string(blk.label).key("dfg").begin_array();
      for (int i = 0; i < blk.dfg.num_nodes(); ++i) {
        const ir::Node& nd = blk.dfg.node(i);
        w.begin_object().key("op").string(ir::opcode_name(nd.op));
        if (!nd.operands.empty()) {
          w.key("in").begin_array();
          for (const ir::NodeId o : nd.operands) w.integer(o);
          w.end_array();
        }
        w.key("out").boolean(nd.live_out).end_object();
      }
      w.end_array().end_object();
    }
    w.end_array().key("curve").begin_array();
    for (const auto& p : curve.points)
      w.begin_array().number(p.area).number(p.cycles).end_array();
    w.end_array().end_object();
    const bool ok = write_file_atomic(
        out_path, [&](std::ostream& out) { out << w.str() << '\n'; });
    if (!ok) {
      std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
      return 2;
    }
    std::printf("wrote %d lifted blocks to %s\n", prog.num_blocks(),
                out_path.c_str());
  }
  return 0;
}

/// `isex tail <journal.bin>`: renders a binary flight-recorder dump (a crash
/// dump, or a file written by Journal::write_binary) as a table, CSV, or a
/// Chrome trace. `--rid R` filters to one request's records — the
/// after-the-fact explanation of a single response.
int cmd_tail(std::vector<std::string> rest) {
  if (rest.empty()) return usage();
  const std::string path = rest[0];
  std::size_t last_n = 0;
  std::uint64_t rid_filter = 0;
  std::string trace_path;
  bool csv = false;
  for (std::size_t i = 1; i < rest.size(); ++i) {
    const std::string& a = rest[i];
    auto next = [&](const char* what) -> const std::string& {
      if (i + 1 >= rest.size())
        throw std::invalid_argument(std::string(what) + " needs a value");
      return rest[++i];
    };
    if (a == "-n")
      last_n = static_cast<std::size_t>(parse_int("-n", next("-n")));
    else if (a == "--rid")
      rid_filter = parse_u64("--rid", next("--rid"));
    else if (a == "--trace")
      trace_path = next("--trace");
    else if (a == "--csv")
      csv = true;
    else
      throw std::invalid_argument("tail: unknown flag '" + a + "'");
  }

  std::vector<obs::JournalRecord> recs;
  std::string err;
  std::string resolved = path;
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    // Crash dumps are written to <base>.<pid> so concurrent workers never
    // clobber each other. Accept the base name here: pick the newest
    // matching <base>.<digits> sibling in the directory.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string(".")
                                : path.substr(0, slash);
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    time_t best_mtime = 0;
    if (DIR* d = ::opendir(dir.c_str())) {
      while (dirent* de = ::readdir(d)) {
        const std::string name = de->d_name;
        if (name.size() <= base.size() + 1 || name.compare(0, base.size(), base) != 0 ||
            name[base.size()] != '.')
          continue;
        const std::string suffix = name.substr(base.size() + 1);
        if (suffix.find_first_not_of("0123456789") != std::string::npos)
          continue;
        const std::string cand = dir + "/" + name;
        struct stat cst{};
        if (::stat(cand.c_str(), &cst) == 0 &&
            (best_mtime == 0 || cst.st_mtime >= best_mtime)) {
          best_mtime = cst.st_mtime;
          resolved = cand;
        }
      }
      ::closedir(d);
    }
  }
  if (!obs::read_journal_file(resolved, &recs, &err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  if (resolved != path)
    std::fprintf(stderr, "note: reading per-pid dump %s\n", resolved.c_str());
  if (recs.empty()) {
    // A valid header with zero complete records is a truncated dump (the
    // process died before the first record landed), not an empty table.
    std::fprintf(stderr,
                 "error: %s: journal header is valid but the dump holds no "
                 "complete record (truncated?)\n",
                 resolved.c_str());
    return 2;
  }
  if (rid_filter != 0) {
    recs.erase(std::remove_if(recs.begin(), recs.end(),
                              [&](const obs::JournalRecord& r) {
                                return r.rid != rid_filter;
                              }),
               recs.end());
  }
  if (last_n != 0 && recs.size() > last_n)
    recs.erase(recs.begin(),
               recs.begin() + static_cast<std::ptrdiff_t>(recs.size() - last_n));

  if (!trace_path.empty()) {
    // Journal -> Chrome trace: one track per request id, kResponse records
    // as complete events spanning the request, everything else instant.
    obs::TraceBuffer buf;
    buf.set_enabled(true);
    buf.set_capacity(recs.size() + 16);
    for (const obs::JournalRecord& r : recs) {
      const int tid = static_cast<int>(r.rid % 1'000'000);
      buf.set_thread_name(obs::kWallPid, tid,
                          "rid " + std::to_string(r.rid));
      obs::TraceEvent e;
      e.pid = obs::kWallPid;
      e.tid = tid;
      e.name = obs::to_string(r.kind);
      e.cat = obs::to_string(r.phase);
      e.args = {{"seq", std::to_string(r.seq)},
                {"rid", std::to_string(r.rid)},
                {"v0", std::to_string(r.v0)},
                {"v1", std::to_string(r.v1)}};
      if (r.kind == obs::JournalKind::kResponse)
        e.args.push_back(
            {"disposition",
             obs::to_string(static_cast<obs::Disposition>(r.v0))});
      if (r.dur_ns > 0) {
        e.phase = obs::TraceEvent::Phase::kComplete;
        e.ts = r.ts_ns - r.dur_ns;  // journal stamps completion time
        e.dur = r.dur_ns;
      } else {
        e.phase = obs::TraceEvent::Phase::kInstant;
        e.ts = r.ts_ns;
      }
      buf.record(std::move(e));
    }
    const bool wrote = write_file_atomic(trace_path, [&](std::ostream& out) {
      buf.write_chrome_json(out);
    });
    if (!wrote) {
      std::fprintf(stderr, "error: cannot write '%s'\n", trace_path.c_str());
      return 2;
    }
    std::printf("wrote %zu events to %s\n", recs.size(), trace_path.c_str());
    return 0;
  }

  if (csv) {
    std::printf("seq,rid,ts_ns,dur_ns,kind,phase,v0,v1\n");
    for (const obs::JournalRecord& r : recs)
      std::printf("%llu,%llu,%lld,%lld,%s,%s,%lld,%lld\n",
                  static_cast<unsigned long long>(r.seq),
                  static_cast<unsigned long long>(r.rid),
                  static_cast<long long>(r.ts_ns),
                  static_cast<long long>(r.dur_ns), obs::to_string(r.kind),
                  obs::to_string(r.phase), static_cast<long long>(r.v0),
                  static_cast<long long>(r.v1));
    return 0;
  }

  util::Table t({"seq", "rid", "ts_ms", "dur_us", "kind", "phase", "v0",
                 "v1", "note"});
  for (const obs::JournalRecord& r : recs) {
    std::string note;
    if (r.kind == obs::JournalKind::kResponse)
      note = obs::to_string(static_cast<obs::Disposition>(r.v0));
    else if (r.kind == obs::JournalKind::kCacheLookup)
      note = r.v0 == 1 ? "hit" : r.v0 == 2 ? "poisoned" : "miss";
    t.row()
        .cell(r.seq)
        .cell(r.rid)
        .cell(static_cast<double>(r.ts_ns) / 1e6, 3)
        .cell(static_cast<double>(r.dur_ns) / 1e3, 1)
        .cell(obs::to_string(r.kind))
        .cell(obs::to_string(r.phase))
        .cell(r.v0)
        .cell(r.v1)
        .cell(note);
  }
  t.print();
  std::printf("%zu records\n", recs.size());
  return 0;
}

}  // namespace

int run(const std::vector<std::string>& raw_args) {
  std::vector<std::string> args = raw_args;
  Ctx ctx;
  bool metrics = false;
  std::string metrics_path;
  // Global flags: strip them wherever they appear. Value-taking flags accept
  // both "--flag value" and "--flag=value".
  try {
    auto take_value = [&](std::vector<std::string>::iterator& it,
                          const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      if (it->rfind(prefix, 0) == 0) {
        const std::string v = it->substr(prefix.size());
        it = args.erase(it);
        return v;
      }
      it = args.erase(it);
      if (it == args.end())
        throw std::invalid_argument(std::string(flag) + " needs a value");
      const std::string v = *it;
      it = args.erase(it);
      return v;
    };
    for (auto it = args.begin(); it != args.end();) {
      if (*it == "--metrics") {
        metrics = true;
        it = args.erase(it);
      } else if (it->rfind("--metrics=", 0) == 0) {
        metrics = true;
        metrics_path = it->substr(std::strlen("--metrics="));
        it = args.erase(it);
      } else if (*it == "--strict") {
        ctx.strict = true;
        it = args.erase(it);
      } else if (*it == "--paranoid") {
        ctx.paranoid = true;
        it = args.erase(it);
      } else if (*it == "--time-budget" ||
                 it->rfind("--time-budget=", 0) == 0) {
        ctx.time_budget_seconds =
            parse_time_budget(take_value(it, "--time-budget"));
        ctx.has_budget = true;
      } else if (*it == "--node-budget" ||
                 it->rfind("--node-budget=", 0) == 0) {
        ctx.budget.set_node_budget(static_cast<long>(
            parse_scaled_count("--node-budget", take_value(it, "--node-budget"))));
        ctx.has_budget = true;
      } else if (*it == "--mem-budget" ||
                 it->rfind("--mem-budget=", 0) == 0) {
        ctx.budget.set_mem_budget(static_cast<std::size_t>(
            parse_scaled_count("--mem-budget", take_value(it, "--mem-budget"))));
        ctx.has_budget = true;
      } else if (*it == "--threads" || it->rfind("--threads=", 0) == 0) {
        const int n = parse_int("--threads", take_value(it, "--threads"));
        if (n < 1 || n > 256)
          throw std::invalid_argument("--threads must be in [1, 256] (got " +
                                      std::to_string(n) + ")");
        util::set_max_threads(n);
      } else {
        ++it;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // Dumps the metrics registry; an unwritable path is an I/O error (exit 2)
  // rather than a silent stderr note.
  const auto dump_metrics = [&]() -> bool {
    if (!metrics) return true;
    util::JsonWriter w;
    obs::Registry::global().write_json(w);
    if (metrics_path.empty()) {
      std::fprintf(stderr, "%s\n", w.str().c_str());
      return true;
    }
    if (!write_file_atomic(metrics_path,
                           [&](std::ostream& out) { out << w.str() << '\n'; })) {
      std::fprintf(stderr, "error: cannot write '%s'\n", metrics_path.c_str());
      return false;
    }
    return true;
  };

  // The cost tables every estimate trusts are validated once per invocation;
  // a corrupted entry is a configuration error (exit 2), not a wrong answer.
  for (const auto* lib : {&hw::CellLibrary::standard_018um(),
                          &hw::CellLibrary::conservative_018um()}) {
    const std::string err = lib->validate();
    if (!err.empty()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 2;
    }
  }

  if (args.empty()) return usage();
  const auto dispatch = [&]() -> int {
    if (args[0] == "list") return cmd_list();
    if (args[0] == "curve" && args.size() >= 2)
      return cmd_curve(args[1], args.size() > 2 && args[2] == "--csv");
    if (args[0] == "select" && args.size() >= 5)
      return cmd_select(ctx, parse_u0(args[1]), parse_budget_fraction(args[2]),
                        parse_policy(args[3]), {args.begin() + 4, args.end()});
    if (args[0] == "pareto" && args.size() == 3)
      return cmd_pareto(args[1], parse_double("eps", args[2]));
    if (args[0] == "iterative" && args.size() >= 3)
      return cmd_iterative(ctx, parse_u0(args[1]),
                           {args.begin() + 2, args.end()});
    if (args[0] == "reconfig" && args.size() == 3)
      return cmd_reconfig(parse_int("num-loops", args[1]),
                          parse_u64("seed", args[2]));
    if (args[0] == "inject" && args.size() >= 7)
      return cmd_inject(ctx, parse_u0(args[1]), parse_budget_fraction(args[2]),
                        parse_policy(args[3]), parse_miss_policy(args[4]),
                        parse_double("factor", args[5]),
                        {args.begin() + 6, args.end()});
    if (args[0] == "margin" && args.size() >= 4)
      return cmd_margin(parse_u0(args[1]), parse_policy(args[2]),
                        {args.begin() + 3, args.end()});
    if (args[0] == "trace" && args.size() >= 2)
      return cmd_trace(ctx, {args.begin() + 1, args.end()});
    if (args[0] == "certify" && args.size() >= 2)
      return cmd_certify(ctx, {args.begin() + 1, args.end()});
    if (args[0] == "serve")
      return cmd_serve(ctx, {args.begin() + 1, args.end()});
    if (args[0] == "lift" && args.size() >= 2)
      return cmd_lift(ctx, {args.begin() + 1, args.end()});
    if (args[0] == "tail" && args.size() >= 2)
      return cmd_tail({args.begin() + 1, args.end()});
    return usage();
  };
  int rc = 2;
  try {
    rc = dispatch();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 2;
  }
  if (!dump_metrics() && rc == 0) rc = 2;
  if (ctx.strict && rc == 0 && ctx.worst != robust::Status::kExact) {
    std::fprintf(stderr, "strict: worst solver status %s (exit 3)\n",
                 robust::to_string(ctx.worst));
    rc = 3;
  }
  // A certificate failure outranks schedulability and strict-mode verdicts:
  // an uncertified answer must never read as a clean result.
  if (ctx.paranoid && ctx.cert_failed && rc != 2) {
    std::fprintf(stderr, "paranoid: certificate failure (exit 4)\n");
    rc = 4;
  }
  // An interrupted one-shot run exits 128+sig — after the metrics flush
  // above, so the partial (budget-truncated) results are still observable.
  // `serve` consumes its signal during the graceful drain and is unaffected.
  if (const int sig = serve::consume_pending_signal(); sig != 0) {
    robust::clear_global_cancel();
    std::fprintf(stderr, "interrupted: signal %d (exit %d)\n", sig, 128 + sig);
    rc = 128 + sig;
  }
  return rc;
}

}  // namespace isex::cli
