// Self-profiler: runs the full toolchain (curve construction -> selection ->
// schedule simulation) over the 18 kernels of the thesis' Table 5.1 pool and
// emits a machine-readable per-kernel, per-phase report of wall time and the
// obs counters each phase produced, plus RMS scaling rows: serial
// branch-and-bound over the first 5/8/14/18 kernels (u0 1.05, budget
// 0.5 Max_Area) with wall time and node count. The JSON seeds
// BENCH_self_profile.json so CI and later sessions can diff
// enumeration/selection effort regressions, not just end-to-end time.
//
//   self_profile [out.json]      (default BENCH_self_profile.json)
//
// Exit code 0 when every kernel profiled, 1 otherwise.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "isex/customize/select_edf.hpp"
#include "isex/customize/select_rms.hpp"
#include "isex/faults/sensitivity.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/obs/provenance.hpp"
#include "isex/obs/trace.hpp"
#include "isex/rt/simulator.hpp"
#include "isex/util/stopwatch.hpp"
#include "isex/workloads/tasks.hpp"

using namespace isex;

namespace {

// The 18 kernels of the thesis' Table 5.1 benchmark pool.
const char* kKernels[] = {
    "crc32",      "sha",       "blowfish", "rijndael", "susan",    "adpcm_enc",
    "adpcm_dec",  "cjpeg",     "djpeg",    "g721encode", "g721decode",
    "jfdctint",   "ndes",      "edn",      "lms",      "compress", "aes",
    "3des",
};

struct Phase {
  std::string name;
  double seconds = 0;
  // Counter deltas attributed to this phase (registry diff across the phase).
  std::map<std::string, std::uint64_t> counters;
};

std::map<std::string, std::uint64_t> counter_delta(
    const obs::Registry::Snapshot& before, const obs::Registry::Snapshot& after) {
  std::map<std::string, std::uint64_t> d;
  for (const auto& [name, v] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t prev = it == before.counters.end() ? 0 : it->second;
    if (v > prev) d[name] = v - prev;
  }
  return d;
}

struct RmsRow {
  std::size_t tasks = 0;
  double seconds = 0;
  long nodes = 0;
  double utilization = 0;
};

void write_phase(util::JsonWriter& w, const Phase& p) {
  w.begin_object().key("phase").string(p.name);
  w.key("seconds").number(p.seconds).key("counters").begin_object();
  for (const auto& [name, v] : p.counters) w.key(name).integer(v);
  w.end_object().end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_self_profile.json";
  auto& reg = obs::Registry::global();

  struct KernelReport {
    std::string name;
    std::vector<Phase> phases;
    double total_seconds = 0;
    double sw_cycles = 0, best_cycles = 0;
    std::size_t configs = 0;
  };
  std::vector<KernelReport> reports;

  for (const char* kernel : kKernels) {
    KernelReport rep;
    rep.name = kernel;
    util::Stopwatch total;

    // Phase 1: curve construction (enumeration + knapsack) — the dominant
    // analysis cost. cached_task() builds on first touch; kernels are unique
    // here so every iteration pays the full build.
    auto before = reg.snapshot();
    util::Stopwatch sw;
    const auto& task = workloads::cached_task(kernel);
    Phase curve{"curve", sw.seconds(), counter_delta(before, reg.snapshot())};
    rep.sw_cycles = task.sw_cycles();
    rep.best_cycles = task.best_cycles();
    rep.configs = task.configs.size();

    // Phase 2: EDF selection over a single-kernel task set.
    before = reg.snapshot();
    sw.restart();
    auto ts = workloads::make_taskset({kernel}, 0.9);
    const auto sel = customize::select_edf(ts, 0.5 * ts.max_area());
    Phase select{"select", sw.seconds(), counter_delta(before, reg.snapshot())};

    // Phase 3: schedule simulation of the selected configuration.
    before = reg.snapshot();
    sw.restart();
    const auto sim_tasks = faults::to_sim_tasks(ts, sel.assignment);
    rt::SimOptions so;
    for (const auto& s : sim_tasks)
      so.horizon = std::max(so.horizon, 64 * s.period);
    const auto r = rt::simulate(sim_tasks, so);
    Phase sim{"simulate", sw.seconds(), counter_delta(before, reg.snapshot())};
    sim.counters["rt.sim.all_met"] = r.all_met ? 1 : 0;

    rep.total_seconds = total.seconds();
    rep.phases = {std::move(curve), std::move(select), std::move(sim)};
    reports.push_back(std::move(rep));
    std::printf("%-12s curve %7.3fs  select %7.3fs  simulate %7.3fs\n", kernel,
                reports.back().phases[0].seconds,
                reports.back().phases[1].seconds,
                reports.back().phases[2].seconds);
  }

  // RMS scaling: the curves are cached by now, so each row times the
  // branch-and-bound alone (test-point tables and suffix fronts included).
  std::vector<RmsRow> rms_rows;
  for (const std::size_t n : {5u, 8u, 14u, 18u}) {
    auto ts = workloads::make_taskset(
        std::vector<std::string>(std::begin(kKernels), std::begin(kKernels) + n),
        1.05);
    ts.sort_by_period();
    util::Stopwatch sw;
    const auto r = customize::select_rms(ts, 0.5 * ts.max_area());
    rms_rows.push_back({n, sw.seconds(), r.nodes_visited, r.utilization});
    std::printf("rms %2zu tasks  %7.3fs  %8ld nodes  U %.4f\n", n,
                rms_rows.back().seconds, r.nodes_visited, r.utilization);
  }

  util::JsonWriter w;
  w.begin_object().key("tool").string("self_profile");
  obs::write_provenance_json(w.key("provenance"), obs::collect_provenance());
  w.key("kernels").begin_array();
  for (const auto& rep : reports) {
    w.begin_object().key("name").string(rep.name);
    w.key("total_seconds").number(rep.total_seconds);
    w.key("sw_cycles").number(rep.sw_cycles);
    w.key("best_cycles").number(rep.best_cycles);
    w.key("configs").integer(rep.configs).key("phases").begin_array();
    for (const Phase& p : rep.phases) write_phase(w, p);
    w.end_array().end_object();
  }
  w.end_array().key("rms_scaling").begin_array();
  for (const RmsRow& row : rms_rows) {
    w.begin_object().key("tasks").integer(row.tasks);
    w.key("seconds").number(row.seconds).key("nodes").integer(row.nodes);
    w.key("utilization").number(row.utilization).end_object();
  }
  reg.write_json(w.end_array().key("registry"));
  std::ofstream out(out_path);
  if (!(out << w.end_object().str() << '\n')) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu kernels)\n", out_path.c_str(), reports.size());
  return reports.size() == std::size(kKernels) ? 0 : 1;
}
