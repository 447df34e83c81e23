// Algorithm micro-benchmarks (google-benchmark): candidate enumeration,
// the selection DPs, MLGP, k-way partitioning, and the ablation sweeps
// DESIGN.md calls out (EDF DP grid granularity, RMS pruning).
//
// The custom main below writes BENCH_micro.json (override the path with
// ISEX_BENCH_OUT): the google-benchmark JSON report plus the obs metrics
// registry, so a timing regression can be read next to the algorithmic
// counters (enumeration rejects, DP cells, B&B nodes) that explain it.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "isex/customize/select_edf.hpp"
#include "isex/customize/select_rms.hpp"
#include "isex/ise/enumerate.hpp"
#include "isex/mlgp/mlgp.hpp"
#include "isex/partition/kway.hpp"
#include "isex/reconfig/algorithms.hpp"
#include "isex/reconfig/trace_compress.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/obs/provenance.hpp"
#include "isex/workloads/tasks.hpp"
#include "isex/workloads/patterns.hpp"

using namespace isex;

namespace {

const hw::CellLibrary& lib() { return hw::CellLibrary::standard_018um(); }

ir::Dfg bench_dfg(int ops) {
  util::Rng rng(42);
  ir::Dfg d;
  auto in = workloads::emit_inputs(d, 6);
  workloads::emit_expression(d, in, ops, workloads::OpMix{}, rng);
  workloads::seal_block(d);
  return d;
}

void BM_EnumerateCandidates(benchmark::State& state) {
  const auto d = bench_dfg(static_cast<int>(state.range(0)));
  ise::EnumOptions opts;
  opts.max_candidates = 20000;
  for (auto _ : state)
    benchmark::DoNotOptimize(ise::enumerate_candidates(d, lib(), opts));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EnumerateCandidates)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

void BM_MaximalMisos(benchmark::State& state) {
  const auto d = bench_dfg(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(ise::maximal_misos(d, lib(), ise::Constraints{}));
}
BENCHMARK(BM_MaximalMisos)->Arg(50)->Arg(200)->Arg(800);

void BM_MlgpGenerate(benchmark::State& state) {
  const auto d = bench_dfg(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    util::Rng rng(7);
    benchmark::DoNotOptimize(
        mlgp::generate_for_block(d, lib(), mlgp::MlgpOptions{}, rng));
  }
}
BENCHMARK(BM_MlgpGenerate)->Arg(50)->Arg(200)->Arg(800)->Arg(2000);

/// Ablation: EDF DP cost vs grid granularity (DESIGN.md).
void BM_SelectEdfGrid(benchmark::State& state) {
  auto ts = workloads::make_taskset(workloads::ch3_tasksets()[0], 1.05);
  const double budget = 0.6 * ts.max_area();
  customize::EdfOptions opts;
  opts.area_grid = 1.0 / static_cast<double>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(customize::select_edf(ts, budget, opts));
}
BENCHMARK(BM_SelectEdfGrid)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

/// Ablation: RMS branch-and-bound with and without the utilization bound.
void BM_SelectRmsPruning(benchmark::State& state) {
  auto ts = workloads::make_taskset(workloads::ch3_tasksets()[1], 1.0);
  ts.sort_by_period();
  const double budget = 0.6 * ts.max_area();
  customize::RmsOptions opts;
  opts.use_bound_pruning = state.range(0) != 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(customize::select_rms(ts, budget, opts));
}
BENCHMARK(BM_SelectRmsPruning)->Arg(1)->Arg(0);

void BM_KwayPartition(benchmark::State& state) {
  util::Rng gen(5);
  const int n = static_cast<int>(state.range(0));
  partition::WeightedGraph g(n);
  for (int v = 0; v < n; ++v) g.set_weight(v, gen.uniform_int(1, 10));
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      if (gen.chance(0.1)) g.add_edge(u, v, gen.uniform_int(1, 20));
  for (auto _ : state) {
    util::Rng rng(3);
    benchmark::DoNotOptimize(partition::kway_partition(g, 4, rng));
  }
}
BENCHMARK(BM_KwayPartition)->Arg(32)->Arg(128)->Arg(512);

/// Reconfiguration counting: flat trace walk vs grammar-compressed count.
void BM_ReconfigCountFlat(benchmark::State& state) {
  util::Rng gen(13);
  auto p = reconfig::synthetic_problem(12, gen);
  // Long repetitive trace (the regime the compression targets).
  std::vector<int> base = p.trace;
  p.trace.clear();
  for (int rep = 0; rep < static_cast<int>(state.range(0)); ++rep)
    p.trace.insert(p.trace.end(), base.begin(), base.end());
  util::Rng rng(3);
  const auto s = reconfig::greedy_partition(p);
  for (auto _ : state)
    benchmark::DoNotOptimize(reconfig::count_reconfigurations(p, s));
}
BENCHMARK(BM_ReconfigCountFlat)->Arg(100)->Arg(1000);

void BM_ReconfigCountCompressed(benchmark::State& state) {
  util::Rng gen(13);
  auto p = reconfig::synthetic_problem(12, gen);
  std::vector<int> base = p.trace;
  p.trace.clear();
  for (int rep = 0; rep < static_cast<int>(state.range(0)); ++rep)
    p.trace.insert(p.trace.end(), base.begin(), base.end());
  util::Rng rng(3);
  const auto s = reconfig::greedy_partition(p);
  const auto g = reconfig::compress_trace(p.trace);
  for (auto _ : state)
    benchmark::DoNotOptimize(reconfig::count_reconfigurations(g, p, s));
}
BENCHMARK(BM_ReconfigCountCompressed)->Arg(100)->Arg(1000);

void BM_IterativePartition(benchmark::State& state) {
  util::Rng gen(9);
  const auto p =
      reconfig::synthetic_problem(static_cast<int>(state.range(0)), gen);
  for (auto _ : state) {
    util::Rng rng(3);
    benchmark::DoNotOptimize(reconfig::iterative_partition(p, rng));
  }
}
BENCHMARK(BM_IterativePartition)->Arg(10)->Arg(30)->Arg(100);

}  // namespace

int main(int argc, char** argv) {
  const char* env = std::getenv("ISEX_BENCH_OUT");
  const std::string out_path = env && *env ? env : "BENCH_micro.json";
  const std::string raw_path = out_path + ".raw";

  // Route google-benchmark's own JSON file report to a sidecar unless the
  // caller already asked for one; the composite written below embeds it.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=" + raw_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int eff_argc = static_cast<int>(args.size());
  benchmark::Initialize(&eff_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(eff_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (has_out) return 0;  // caller owns the report; skip the composite

  std::ifstream raw(raw_path);
  std::ostringstream bench_json;
  bench_json << raw.rdbuf();
  std::remove(raw_path.c_str());
  util::JsonWriter w;
  obs::write_provenance_json(w.begin_object().key("provenance"),
                             obs::collect_provenance());
  w.key("benchmark").raw(bench_json.str());
  obs::Registry::global().write_json(w.key("obs_metrics"));
  std::ofstream out(out_path);
  if (!(out << w.end_object().str() << '\n')) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
