// Golden identification table: the byte-identity gate for every change to
// candidate enumeration or pool thinning.
//
// tests/data/identify_golden.csv holds, for the 18 Table 5.1 kernels and the
// 5 frontend fixtures, every point of the configuration curve that `isex
// curve <kernel>` and `isex lift --fixture <name>` print, at full precision,
// plus each op's nonzero ise.enum.* / ise.miso.* / select.* counter totals at
// --threads 1. The table was recorded from the straightforward enumerator
// (hash-set visited set, per-call input count, frontier rescan) and the
// contraction-per-candidate pool thinning; the incremental forms must
// reproduce it exactly. Curves must match at 1 and 4 threads (and at the
// ambient ISEX_THREADS count); counters at 1 thread, where the work
// counters are defined (parallel runs legitimately overshoot the
// max_candidates cap before the replay trims it).
//
// On a mismatch the test writes the table it computed to
// identify_golden.actual.csv in its working directory, so a deliberate change
// to identification can be reviewed with diff and the file replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "isex/frontend/fixtures.hpp"
#include "isex/frontend/lift.hpp"
#include "isex/hw/cell_library.hpp"
#include "isex/ise/enumerate.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/util/task_pool.hpp"
#include "isex/workloads/tasks.hpp"
#include "isex/workloads/workloads.hpp"

namespace isex {
namespace {

// The 18 kernels of the thesis' Table 5.1 benchmark pool.
const std::vector<std::string> kKernels = {
    "crc32",      "sha",        "blowfish", "rijndael", "susan",
    "adpcm_enc",  "adpcm_dec",  "cjpeg",    "djpeg",    "g721encode",
    "g721decode", "jfdctint",   "ndes",     "edn",      "lms",
    "compress",   "aes",        "3des"};

const hw::CellLibrary& lib() { return hw::CellLibrary::standard_018um(); }

class ThreadCap {
 public:
  explicit ThreadCap(int n) { util::set_max_threads(n); }
  ~ThreadCap() { util::set_max_threads(0); }
};

struct OpResult {
  std::string op;  // "curve:<kernel>" or "lift:<fixture>"
  std::vector<select::Config> points;
  std::map<std::string, std::uint64_t> counters;  // nonzero, gated prefixes
};

std::vector<std::int64_t> wcet_counts(const ir::Program& prog) {
  return prog.wcet_counts(ir::Program::sum_cost(
      [](const ir::Node& n) { return lib().sw_cycles(n); }));
}

int max_block_nodes(const ir::Program& prog) {
  int m = 0;
  for (const auto& b : prog.blocks()) m = std::max(m, b.dfg.num_nodes());
  return m;
}

/// `isex curve <kernel>`: the curve workloads::cached_task builds.
std::vector<select::Config> kernel_curve(const std::string& kernel) {
  const ir::Program prog = workloads::make_benchmark(kernel);
  select::CurveOptions co;
  if (max_block_nodes(prog) > 600) {
    co.enum_opts.max_candidates = 20000;
    co.enum_opts.max_candidate_nodes = 16;
  } else {
    co.enum_opts.max_candidates = 60000;
    co.enum_opts.max_candidate_nodes = 24;
  }
  return select::build_config_curve(prog, wcet_counts(prog), lib(), co).points;
}

/// `isex lift --fixture <name>`: the per-block certification pools, then the
/// curve of the lifted program.
std::vector<select::Config> lift_curve(const frontend::Fixture& f) {
  const frontend::LiftResult lr =
      frontend::lift_elf(f.elf, "fixture:" + f.name, frontend::LiftOptions{});
  const auto* lifted = std::get_if<frontend::Lifted>(&lr);
  if (lifted == nullptr) throw std::runtime_error("lift failed: " + f.name);
  const ir::Program& prog = lifted->program;
  ise::EnumOptions eo;
  eo.max_candidates = 20000;
  for (int b = 0; b < prog.num_blocks(); ++b)
    (void)ise::enumerate_candidates(prog.block(b).dfg, lib(), eo, b, 1);
  select::CurveOptions co;
  if (max_block_nodes(prog) > 600) {
    co.enum_opts.max_candidates = 20000;
    co.enum_opts.max_candidate_nodes = 16;
  }
  return select::build_config_curve(prog, wcet_counts(prog), lib(), co).points;
}

std::map<std::string, std::uint64_t> gated_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, v] : obs::Registry::global().snapshot().counters) {
    const bool gated = name.rfind("ise.enum.", 0) == 0 ||
                       name.rfind("ise.miso.", 0) == 0 ||
                       name.rfind("select.", 0) == 0;
    if (gated && v != 0) out[name] = v;
  }
  return out;
}

/// Every op of the table at the current thread count, in table order.
std::vector<OpResult> compute_all() {
  std::vector<OpResult> out;
  auto run = [&](std::string op, auto&& fn) {
    obs::Registry::global().reset();
    OpResult r;
    r.op = std::move(op);
    r.points = fn();
    r.counters = gated_counters();
    out.push_back(std::move(r));
  };
  for (const auto& k : kKernels) run("curve:" + k, [&] { return kernel_curve(k); });
  for (const auto& f : frontend::fixtures())
    run("lift:" + f.name, [&] { return lift_curve(f); });
  return out;
}

/// CSV form: `point,<op>,<index>,<area>,<cycles>` and
/// `counter,<op>,<name>,<value>` lines.
std::string to_csv(const std::vector<OpResult>& results, bool with_counters) {
  std::ostringstream os;
  char buf[160];
  for (const auto& r : results) {
    for (std::size_t i = 0; i < r.points.size(); ++i) {
      std::snprintf(buf, sizeof buf, "point,%s,%zu,%.17g,%.17g\n", r.op.c_str(),
                    i, r.points[i].area, r.points[i].cycles);
      os << buf;
    }
    if (!with_counters) continue;
    for (const auto& [name, v] : r.counters)
      os << "counter," << r.op << "," << name << "," << v << "\n";
  }
  return os.str();
}

/// The golden table without its comment lines; `points_only` drops the
/// counter lines.
std::string golden(bool points_only) {
  std::ifstream in(std::string(ISEX_TEST_DATA_DIR) + "/identify_golden.csv");
  EXPECT_TRUE(in.good()) << "missing tests/data/identify_golden.csv";
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (points_only && line.rfind("point,", 0) != 0) continue;
    out += line + "\n";
  }
  return out;
}

void write_actual(const std::string& csv) {
  std::ofstream("identify_golden.actual.csv") << csv;
}

TEST(IdentifyGolden, CurvesAndCountersMatchAtOneThread) {
  ThreadCap cap(1);
  const auto results = compute_all();
  ASSERT_EQ(results.size(), kKernels.size() + 5);
  const std::string points = to_csv(results, false);
  if (points != golden(true)) write_actual(to_csv(results, ISEX_OBS_ENABLED));
  EXPECT_EQ(points, golden(true));
#if ISEX_OBS_ENABLED
  const std::string full = to_csv(results, true);
  if (full != golden(false)) write_actual(full);
  EXPECT_EQ(full, golden(false));
#endif
  // The table's kernel curves are the ones `isex curve` prints.
  for (const auto& r : results) {
    if (r.op.rfind("curve:", 0) != 0) continue;
    const auto& configs = workloads::cached_task(r.op.substr(6)).configs;
    ASSERT_EQ(configs.size(), r.points.size()) << r.op;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      EXPECT_EQ(configs[i].area, r.points[i].area) << r.op << " point " << i;
      EXPECT_EQ(configs[i].cycles, r.points[i].cycles) << r.op << " point " << i;
    }
  }
}

TEST(IdentifyGolden, CurvesMatchAtFourAndAmbientThreads) {
  std::vector<int> counts = {4};
  const int ambient = util::max_threads();
  if (ambient != 1 && ambient != 4) counts.push_back(ambient);
  for (int t : counts) {
    ThreadCap cap(t);
    const std::string points = to_csv(compute_all(), false);
    if (points != golden(true)) write_actual(points);
    EXPECT_EQ(points, golden(true)) << t << " threads";
  }
}

}  // namespace
}  // namespace isex
