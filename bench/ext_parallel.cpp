// Extension: parallel solver-core scaling and byte-identity bench.
//
// For each kernel class the parallel work matters on (crc32, sha, aes,
// 3des), builds the full configuration curve — enumeration, per-block
// disjoint pools, knapsack — at 1, 2, 4 and 8 threads, and reports:
//   * wall time per thread count (best of --reps runs);
//   * speedup vs the 1-thread run and *scaling efficiency*, defined as
//     speedup / min(threads, num_cpus). On a multi-core runner this is the
//     usual per-core efficiency; on a 1-CPU machine every thread count has
//     denominator 1, so the bench degrades into a pure overhead/correctness
//     check instead of fabricating impossible speedups;
//   * byte_mismatches: the serialized curve (every area/cycles point printed
//     with full precision) at T threads is compared byte-for-byte against
//     the 1-thread curve. The parallel solver core promises byte-identical
//     results at any thread count, so this is always gated at zero.
// One RMS branch-and-bound selection over a 5-task set is byte-checked the
// same way (ts.size() >= 5 engages the parallel B&B).
//
// Writes BENCH_parallel.json (override with ISEX_BENCH_OUT) with provenance,
// so tools/bench_compare can gate efficiency and mismatches in CI.
//
// Usage: ext_parallel [--reps N] [--threads-list 1,2,4,8]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "isex/customize/select_rms.hpp"
#include "isex/hw/cell_library.hpp"
#include "isex/obs/provenance.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/util/stopwatch.hpp"
#include "isex/util/table.hpp"
#include "isex/util/task_pool.hpp"
#include "isex/workloads/tasks.hpp"
#include "isex/workloads/workloads.hpp"

using namespace isex;

namespace {

const std::vector<std::string>& kernels() {
  static const std::vector<std::string> k = {"crc32", "sha", "aes", "3des"};
  return k;
}

select::CurveOptions curve_options(const ir::Program& prog) {
  // Mirror workloads::build_task's effort caps so the bench measures the
  // same work the toolchain actually runs.
  select::CurveOptions opts;
  int max_block = 0;
  for (const auto& b : prog.blocks())
    max_block = std::max(max_block, b.dfg.num_nodes());
  if (max_block > 600) {
    opts.enum_opts.max_candidates = 20000;
    opts.enum_opts.max_candidate_nodes = 16;
  } else {
    opts.enum_opts.max_candidates = 60000;
    opts.enum_opts.max_candidate_nodes = 24;
  }
  return opts;
}

std::string serialize_curve(const select::ConfigCurve& c) {
  std::string s;
  char buf[96];
  for (const auto& p : c.points) {
    std::snprintf(buf, sizeof buf, "%.17g,%.17g;", p.area, p.cycles);
    s += buf;
  }
  return s;
}

std::string serialize_selection(const customize::SelectionResult& r) {
  std::string s;
  char buf[96];
  for (int a : r.assignment) {
    std::snprintf(buf, sizeof buf, "%d;", a);
    s += buf;
  }
  std::snprintf(buf, sizeof buf, "U=%.17g,A=%.17g", r.utilization,
                r.area_used);
  return s + buf;
}

struct Point {
  int threads = 1;
  double wall_seconds = 0;
  double speedup = 1;
  double efficiency = 1;
  int byte_mismatches = 0;
};

struct KernelResult {
  std::string name;
  std::vector<Point> points;
};

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::vector<int> thread_list = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--reps") reps = std::stoi(next());
    else if (a == "--threads-list") {
      thread_list.clear();
      std::stringstream ss(next());
      for (std::string tok; std::getline(ss, tok, ',');)
        thread_list.push_back(std::stoi(tok));
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }
  if (reps < 1 || thread_list.empty() || thread_list.front() != 1) {
    std::fprintf(stderr, "--reps must be >= 1 and --threads-list must "
                         "start at 1 (the identity baseline)\n");
    return 2;
  }

  const auto& lib = hw::CellLibrary::standard_018um();
  const int ncpu = util::hardware_threads();
  std::vector<KernelResult> results;
  int total_mismatches = 0;

  for (const auto& name : kernels()) {
    const ir::Program prog = workloads::make_benchmark(name);
    const auto counts = prog.wcet_counts(ir::Program::sum_cost(
        [&lib](const ir::Node& n) { return lib.sw_cycles(n); }));
    const auto opts = curve_options(prog);

    KernelResult kr;
    kr.name = name;
    std::string baseline;
    double base_wall = 0;
    for (int t : thread_list) {
      util::set_max_threads(t);
      double best = 1e300;
      std::string serialized;
      for (int r = 0; r < reps; ++r) {
        util::Stopwatch sw;
        const auto curve = select::build_config_curve(prog, counts, lib, opts);
        best = std::min(best, sw.seconds());
        serialized = serialize_curve(curve);
      }
      Point p;
      p.threads = t;
      p.wall_seconds = best;
      if (t == 1) {
        baseline = serialized;
        base_wall = best;
      }
      p.speedup = best > 0 ? base_wall / best : 1;
      p.efficiency = p.speedup / static_cast<double>(std::min(t, ncpu));
      p.byte_mismatches = serialized == baseline ? 0 : 1;
      total_mismatches += p.byte_mismatches;
      kr.points.push_back(p);
    }
    results.push_back(std::move(kr));
  }

  // RMS B&B byte-identity on a 5-task set (>= 5 engages the parallel path).
  {
    util::set_max_threads(1);
    auto ts = workloads::make_taskset({"crc32", "sha", "aes", "adpcm_enc",
                                       "blowfish"},
                                      1.05);
    ts.sort_by_period();
    const double budget = 0.5 * ts.max_area();
    KernelResult kr;
    kr.name = "rms_select5";
    std::string baseline;
    double base_wall = 0;
    for (int t : thread_list) {
      util::set_max_threads(t);
      double best = 1e300;
      std::string serialized;
      for (int r = 0; r < reps; ++r) {
        util::Stopwatch sw;
        const auto sel = customize::select_rms(ts, budget);
        best = std::min(best, sw.seconds());
        serialized = serialize_selection(sel);
      }
      Point p;
      p.threads = t;
      p.wall_seconds = best;
      if (t == 1) {
        baseline = serialized;
        base_wall = best;
      }
      p.speedup = best > 0 ? base_wall / best : 1;
      p.efficiency = p.speedup / static_cast<double>(std::min(t, ncpu));
      p.byte_mismatches = serialized == baseline ? 0 : 1;
      total_mismatches += p.byte_mismatches;
      kr.points.push_back(p);
    }
    results.push_back(std::move(kr));
  }

  util::Table t({"kernel", "threads", "wall(s)", "speedup", "efficiency",
                 "identical"});
  for (const auto& kr : results)
    for (const auto& p : kr.points)
      t.row()
          .cell(kr.name)
          .cell(p.threads)
          .cell(p.wall_seconds, 4)
          .cell(p.speedup, 3)
          .cell(p.efficiency, 3)
          .cell(p.byte_mismatches == 0 ? "yes" : "NO");
  t.print();
  std::printf("\n%d cpu(s), %d byte mismatch(es) across all thread counts\n",
              ncpu, total_mismatches);

  const char* env = std::getenv("ISEX_BENCH_OUT");
  const std::string out_path = env && *env ? env : "BENCH_parallel.json";
  util::JsonWriter w;
  obs::write_provenance_json(w.begin_object().key("provenance"),
                             obs::collect_provenance());
  w.key("num_cpus").integer(ncpu).key("reps").integer(reps);
  w.key("kernels").begin_array();
  for (const auto& kr : results) {
    w.begin_object().key("name").string(kr.name).key("points").begin_array();
    for (const auto& p : kr.points) {
      w.begin_object().key("threads").integer(p.threads);
      w.key("wall_seconds").number(p.wall_seconds);
      w.key("speedup").number(p.speedup);
      w.key("efficiency").number(p.efficiency);
      w.key("byte_mismatches").integer(p.byte_mismatches).end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().key("total_byte_mismatches").integer(total_mismatches);
  std::ofstream out(out_path);
  if (!(out << w.end_object().str() << '\n')) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return total_mismatches == 0 ? 0 : 1;
}
