#include "isex/ise/enumerate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_set>
#include <variant>

#include "isex/frontend/fixtures.hpp"
#include "isex/frontend/lift.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/robust/budget.hpp"
#include "isex/util/task_pool.hpp"
#include "isex/workloads/workloads.hpp"
#include "test_util.hpp"

namespace isex::ise {
namespace {

const hw::CellLibrary& lib() { return hw::CellLibrary::standard_018um(); }

// Property suite over random DFGs: every emitted candidate is legal, and on
// small graphs the connected enumerator finds every *connected* legal subgraph.
class EnumerateProperty : public ::testing::TestWithParam<int> {};

TEST_P(EnumerateProperty, AllCandidatesAreLegal) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 3);
  const ir::Dfg d = isex::testing::random_dfg(rng, 3, 40, 0.1);
  EnumOptions opts;
  const auto cands = enumerate_candidates(d, lib(), opts);
  for (const auto& c : cands) {
    EXPECT_TRUE(is_legal(d, c.nodes, opts.constraints));
    EXPECT_EQ(c.num_inputs, d.input_count(c.nodes));
    EXPECT_EQ(c.num_outputs, d.output_count(c.nodes));
    EXPECT_GE(c.nodes.count(), 2u);
  }
}

TEST_P(EnumerateProperty, NoDuplicates) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 5);
  const ir::Dfg d = isex::testing::random_dfg(rng, 3, 30, 0.1);
  const auto cands = enumerate_candidates(d, lib(), EnumOptions{});
  std::unordered_set<util::Bitset, util::BitsetHash> seen;
  for (const auto& c : cands)
    EXPECT_TRUE(seen.insert(c.nodes).second) << "duplicate candidate";
}

TEST_P(EnumerateProperty, FindsEveryConnectedLegalSubgraphOnSmallGraphs) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 29 + 11);
  const ir::Dfg d = isex::testing::random_dfg(rng, 2, 10, 0.1);
  EnumOptions opts;
  const auto cands = enumerate_connected(d, lib(), opts);
  std::unordered_set<util::Bitset, util::BitsetHash> emitted;
  for (const auto& c : cands) emitted.insert(c.nodes);

  // Ground truth: all legal subsets, filtered to connected ones.
  for (const auto& s : isex::testing::brute_force_legal(d, opts.constraints)) {
    // Connectivity check (undirected) over s.
    const auto ids = s.to_vector();
    util::Bitset reached = d.empty_set();
    std::vector<int> stack{ids[0]};
    reached.set(static_cast<std::size_t>(ids[0]));
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      auto visit = [&](ir::NodeId u) {
        if (s.test(static_cast<std::size_t>(u)) &&
            !reached.test(static_cast<std::size_t>(u))) {
          reached.set(static_cast<std::size_t>(u));
          stack.push_back(u);
        }
      };
      for (auto o : d.node(v).operands) visit(o);
      for (auto c : d.node(v).consumers) visit(c);
    }
    if (reached != s) continue;  // disconnected; growth enumerator skips these
    EXPECT_TRUE(emitted.count(s)) << "missing connected legal subgraph of size "
                                  << s.count();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumerateProperty, ::testing::Range(0, 15));

TEST(MaximalMiso, SingleOutputByConstruction) {
  util::Rng rng(99);
  const ir::Dfg d = isex::testing::random_dfg(rng, 3, 50, 0.1);
  for (const auto& m : maximal_misos(d, lib(), Constraints{})) {
    EXPECT_EQ(m.num_outputs, 1);
    EXPECT_TRUE(d.is_convex(m.nodes));
    EXPECT_LE(m.num_inputs, 4);
  }
}

TEST(MaximalMiso, GrowsChainCompletely) {
  // a -> b -> c chain collapses into one MaxMISO rooted at c.
  ir::Dfg d;
  const auto i = d.add(ir::Opcode::kInput);
  const auto a = d.add(ir::Opcode::kAdd, {i, i});
  const auto b = d.add(ir::Opcode::kXor, {a, i});
  const auto c = d.add(ir::Opcode::kShl, {b, i});
  d.mark_live_out(c);
  const auto misos = maximal_misos(d, lib(), Constraints{});
  bool found_full = false;
  for (const auto& m : misos)
    if (m.nodes.count() == 3) {
      found_full = true;
      EXPECT_TRUE(m.nodes.test(static_cast<std::size_t>(a)));
      EXPECT_TRUE(m.nodes.test(static_cast<std::size_t>(b)));
      EXPECT_TRUE(m.nodes.test(static_cast<std::size_t>(c)));
    }
  EXPECT_TRUE(found_full);
}

TEST(IsoHash, IsomorphicShapesCollide) {
  // Two separate (a+b)*c datapaths in one block.
  ir::Dfg d;
  const auto i0 = d.add(ir::Opcode::kInput);
  const auto i1 = d.add(ir::Opcode::kInput);
  const auto i2 = d.add(ir::Opcode::kInput);
  const auto a1 = d.add(ir::Opcode::kAdd, {i0, i1});
  const auto m1 = d.add(ir::Opcode::kMul, {a1, i2});
  const auto a2 = d.add(ir::Opcode::kAdd, {i1, i2});
  const auto m2 = d.add(ir::Opcode::kMul, {a2, i0});
  d.mark_live_out(m1);
  d.mark_live_out(m2);
  auto s1 = d.empty_set();
  s1.set(static_cast<std::size_t>(a1));
  s1.set(static_cast<std::size_t>(m1));
  auto s2 = d.empty_set();
  s2.set(static_cast<std::size_t>(a2));
  s2.set(static_cast<std::size_t>(m2));
  EXPECT_EQ(iso_hash(d, s1), iso_hash(d, s2));

  // A different shape (add feeding add) must not collide.
  auto s3 = d.empty_set();
  s3.set(static_cast<std::size_t>(a1));
  s3.set(static_cast<std::size_t>(a2));
  EXPECT_NE(iso_hash(d, s1), iso_hash(d, s3));
}

TEST(Estimate, ChainedAddsFitOneCycle) {
  ir::Dfg d;
  const auto i = d.add(ir::Opcode::kInput);
  auto prev = d.add(ir::Opcode::kAdd, {i, i});
  auto s = d.empty_set();
  s.set(static_cast<std::size_t>(prev));
  for (int k = 0; k < 3; ++k) {
    prev = d.add(ir::Opcode::kAdd, {prev, i});
    s.set(static_cast<std::size_t>(prev));
  }
  d.mark_live_out(prev);
  const auto e = hw::estimate(d, s, lib());
  // 4 chained 2ns adders = 8ns < 8.33ns clock: 1 hardware cycle, 4 sw cycles.
  EXPECT_EQ(e.hw_cycles, 1);
  EXPECT_DOUBLE_EQ(e.sw_cycles, 4);
  EXPECT_DOUBLE_EQ(e.gain_per_exec, 3);
  EXPECT_NEAR(e.area, 4.0, 1e-9);
}


// --- Differential grow test --------------------------------------------------
//
// The connected-growth enumerator keeps an incremental frame per search depth
// (input set, merged frontier) and, instead of a table of visited sets, the
// set of extensions whose subtree a frame on the DFS stack has finished. The
// oracle below is the straightforward form it replaced: one hash set of whole
// bitsets for the entire block, Dfg::input_count per grow call, a frontier
// rescan of the subgraph per call and the reference convexity scan. Both
// must emit the same node sets in the same order and do the same counted
// work, including where a grow-call cap, a node budget or a memory budget
// cuts the search mid-seed.

struct OracleRun {
  std::vector<util::Bitset> sets;  // emission order
  std::map<std::string, std::uint64_t> counters;
  bool cap_hit = false;
};

class GrowOracle {
 public:
  GrowOracle(const ir::Dfg& dfg, const EnumOptions& opts)
      : dfg_(dfg), opts_(opts), budget_(opts.max_candidates) {}

  OracleRun run() {
    for (int seed = 0; seed < dfg_.num_nodes(); ++seed) {
      if (truncated_) break;
      if (!dfg_.valid_mask().test(static_cast<std::size_t>(seed))) continue;
      if (dfg_.node(seed).op == ir::Opcode::kConst) continue;
      util::Bitset s = dfg_.empty_set();
      s.set(static_cast<std::size_t>(seed));
      grow(s, seed);
      if (budget_ <= 0) break;
    }
    OracleRun r;
    r.sets = std::move(sets_);
    r.cap_hit = budget_ <= 0;
    auto put = [&](const char* name, long v) {
      if (v != 0) r.counters[name] = static_cast<std::uint64_t>(v);
    };
    put("ise.enum.candidates", static_cast<long>(r.sets.size()));
    put("ise.enum.grow_calls", grow_calls_);
    put("ise.enum.input_rejects", input_rejects_);
    put("ise.enum.output_rejects", output_rejects_);
    put("ise.enum.convexity_rejects", convexity_rejects_);
    put("ise.enum.budget_exhausted", r.cap_hit ? 1 : 0);
    put("ise.enum.robust_budget_truncations", truncated_ ? 1 : 0);
    return r;
  }

 private:
  void grow(const util::Bitset& s, int seed) {
    if (budget_ <= 0 || truncated_) return;
    if (opts_.budget != nullptr && opts_.budget->charge()) {
      truncated_ = true;
      return;
    }
    --budget_;
    ++grow_calls_;
    const Constraints& c = opts_.constraints;
    if (s.count() >= 2) {
      if (dfg_.input_count(s) > c.max_inputs) {
        ++input_rejects_;
      } else if (dfg_.output_count(s) > c.max_outputs) {
        ++output_rejects_;
      } else if (!dfg_.is_convex_scan(s)) {
        ++convexity_rejects_;
      } else {
        sets_.push_back(s);
      }
    }
    if (s.count() >= static_cast<std::size_t>(opts_.max_candidate_nodes))
      return;
    std::vector<int> frontier;
    s.for_each([&](std::size_t v) {
      auto consider = [&](int u) {
        const auto ui = static_cast<std::size_t>(u);
        if (u <= seed || s.test(ui) || !dfg_.valid_mask().test(ui)) return;
        if (dfg_.node(u).op == ir::Opcode::kConst) return;
        frontier.push_back(u);
      };
      for (int o : dfg_.node(static_cast<int>(v)).operands) consider(o);
      for (int u : dfg_.node(static_cast<int>(v)).consumers) consider(u);
    });
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
    const std::size_t bytes =
        8 * ((static_cast<std::size_t>(dfg_.num_nodes()) + 63) / 64) + 64;
    for (int u : frontier) {
      if (truncated_) return;
      util::Bitset child = s;
      child.set(static_cast<std::size_t>(u));
      if (!visited_.insert(child).second) continue;
      if (opts_.budget != nullptr && opts_.budget->charge_mem(bytes)) {
        truncated_ = true;
        return;
      }
      grow(child, seed);
    }
  }

  const ir::Dfg& dfg_;
  const EnumOptions& opts_;
  long budget_;
  bool truncated_ = false;
  std::unordered_set<util::Bitset, util::BitsetHash> visited_;
  std::vector<util::Bitset> sets_;
  long grow_calls_ = 0, input_rejects_ = 0, output_rejects_ = 0,
       convexity_rejects_ = 0;
};

class ThreadCap {
 public:
  explicit ThreadCap(int n) { util::set_max_threads(n); }
  ~ThreadCap() { util::set_max_threads(0); }
};

#if ISEX_OBS_ENABLED
std::map<std::string, std::uint64_t> enum_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, v] : obs::Registry::global().snapshot().counters)
    if (name.rfind("ise.enum.", 0) == 0 && v != 0) out[name] = v;
  return out;
}
#endif

/// Budget limits of one differential case (fresh Budget per run: budgets
/// carry state).
struct BudgetSpec {
  long nodes = -1;
  std::size_t mem = 0;
};

/// Runs the oracle and enumerate_connected at `threads` on the same inputs
/// and compares emissions and counters. Returns the oracle's run.
OracleRun expect_same_growth(const ir::Dfg& dfg, EnumOptions opts, int threads,
                        const BudgetSpec& spec, const std::string& what) {
  auto make_budget = [&] {
    robust::Budget b;
    if (spec.nodes >= 0) b.set_node_budget(spec.nodes);
    if (spec.mem > 0) b.set_mem_budget(spec.mem);
    return b;
  };
  const bool budgeted = spec.nodes >= 0 || spec.mem > 0;
  robust::Budget oracle_budget = make_budget();
  opts.budget = budgeted ? &oracle_budget : nullptr;
  const OracleRun want = GrowOracle(dfg, opts).run();

  robust::Budget budget = make_budget();
  opts.budget = budgeted ? &budget : nullptr;
  ThreadCap cap(threads);
  obs::Registry::global().reset();
  const auto got = enumerate_connected(dfg, lib(), opts);
  EXPECT_EQ(got.size(), want.sets.size()) << what;
  for (std::size_t i = 0; i < std::min(got.size(), want.sets.size()); ++i)
    if (got[i].nodes != want.sets[i]) {
      ADD_FAILURE() << what << ": emission " << i << " differs";
      break;
    }
#if ISEX_OBS_ENABLED
  EXPECT_EQ(enum_counters(), want.counters) << what;
#endif
  return want;
}

TEST(GrowDifferential, RandomDfgsWithAndWithoutBindingCaps) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed * 7919);
    // Small blocks and blocks large enough for the cap to cut mid-seed.
    const int ops = seed % 2 == 0 ? 40 : 90 + static_cast<int>(seed) * 4;
    const ir::Dfg d = isex::testing::random_dfg(rng, 4, ops, 0.08);
    for (long cap_calls : {20000L, 777L, 50L}) {
      for (int nodes : {40, 6}) {
        EnumOptions opts;
        opts.max_candidates = cap_calls;
        opts.max_candidate_nodes = nodes;
        for (int threads : {1, 4})
          expect_same_growth(d, opts, threads, {},
                             "seed " + std::to_string(seed) + " cap " +
                                 std::to_string(cap_calls) + " nodes " +
                                 std::to_string(nodes) + " threads " +
                                 std::to_string(threads));
      }
    }
  }
}

TEST(GrowDifferential, NodeAndMemoryBudgetsCutMidSeed) {
  util::Rng rng(4242);
  const ir::Dfg d = isex::testing::random_dfg(rng, 4, 80, 0.1);
  EnumOptions opts;
  opts.max_candidate_nodes = 6;
  const OracleRun full = expect_same_growth(d, opts, 1, {}, "unbudgeted");
  ASSERT_FALSE(full.cap_hit);
  const long calls =
      static_cast<long>(full.counters.at("ise.enum.grow_calls"));
  ASSERT_GT(calls, 200);
  const std::size_t entry =
      8 * ((static_cast<std::size_t>(d.num_nodes()) + 63) / 64) + 64;
  auto truncated = [](const OracleRun& r) {
    return r.counters.count("ise.enum.robust_budget_truncations") == 1;
  };
  for (int threads : {1, 4}) {
    for (long nodes : {calls / 3, calls / 2 + 1, calls - 1})
      EXPECT_TRUE(truncated(
          expect_same_growth(d, opts, threads, {nodes, 0},
                             "node budget " + std::to_string(nodes))));
    for (std::size_t sets : {std::size_t{37}, std::size_t{101}})
      EXPECT_TRUE(truncated(expect_same_growth(
          d, opts, threads, {-1, sets * entry},
          "mem budget " + std::to_string(sets) + " sets")));
  }
}

TEST(GrowDifferential, EveryBlockOfTheKernelsAndFixtures) {
  std::vector<std::pair<std::string, ir::Program>> progs;
  for (const char* k :
       {"crc32", "sha", "blowfish", "rijndael", "susan", "adpcm_enc",
        "adpcm_dec", "cjpeg", "djpeg", "g721encode", "g721decode", "jfdctint",
        "ndes", "edn", "lms", "compress", "aes", "3des"})
    progs.emplace_back(k, workloads::make_benchmark(k));
  for (const auto& f : frontend::fixtures()) {
    auto lr = frontend::lift_elf(f.elf, f.name, frontend::LiftOptions{});
    ASSERT_TRUE(std::holds_alternative<frontend::Lifted>(lr)) << f.name;
    progs.emplace_back("fixture:" + f.name,
                       std::move(std::get<frontend::Lifted>(lr).program));
  }
  int binding = 0, free = 0;
  for (const auto& [name, prog] : progs)
    for (int b = 0; b < prog.num_blocks(); ++b) {
      const ir::Dfg& d = prog.block(b).dfg;
      EnumOptions opts;
      opts.max_candidates = 4000;  // binds on the big blocks only
      opts.max_candidate_nodes = d.num_nodes() > 600 ? 16 : 24;
      for (int threads : {1, 4}) {
        const OracleRun r = expect_same_growth(
            d, opts, threads, {},
            name + " block " + std::to_string(b) + " threads " +
                std::to_string(threads));
        ++(r.cap_hit ? binding : free);
      }
    }
  EXPECT_GT(binding, 0);
  EXPECT_GT(free, 0);
}

TEST(GrowDifferential, CapAtEveryGrowCall) {
  // Cutting the search after every grow call, and refusing every visited
  // set, stops it at each point where a frame sets or clears an exclusion
  // bit: mid-frontier, while unwinding past a cut, and between seeds.
  util::Rng rng(1729);
  const ir::Dfg d = isex::testing::random_dfg(rng, 4, 34, 0.1);
  EnumOptions opts;
  opts.max_candidate_nodes = 5;
  const OracleRun full = expect_same_growth(d, opts, 1, {}, "uncapped");
  ASSERT_FALSE(full.cap_hit);
  const long calls =
      static_cast<long>(full.counters.at("ise.enum.grow_calls"));
  ASSERT_GT(calls, 500);
  long seeds = 0;  // each grows one single-node frame, charged no memory
  for (int v = 0; v < d.num_nodes(); ++v)
    if (d.valid_mask().test(static_cast<std::size_t>(v)) &&
        d.node(v).op != ir::Opcode::kConst)
      ++seeds;
  const std::size_t entry =
      8 * ((static_cast<std::size_t>(d.num_nodes()) + 63) / 64) + 64;
  for (int threads : {1, 4}) {
    const std::string at = " threads " + std::to_string(threads);
    for (long cap = 1; cap <= calls; ++cap) {
      EnumOptions capped = opts;
      capped.max_candidates = cap;
      EXPECT_TRUE(expect_same_growth(d, capped, threads, {},
                                     "cap " + std::to_string(cap) + at)
                      .cap_hit);
      ASSERT_FALSE(HasFailure()) << "cap " << cap << at;
    }
    // A budget of k sets refuses the (k+1)-th; the sweep ends at the first
    // budget the whole search fits in, which is one set per non-seed call.
    long sets = 1;
    while (expect_same_growth(d, opts, threads,
                              {-1, static_cast<std::size_t>(sets) * entry},
                              "mem budget " + std::to_string(sets) + at)
               .counters.count("ise.enum.robust_budget_truncations") == 1) {
      ASSERT_FALSE(HasFailure()) << "mem budget " << sets << at;
      ++sets;
    }
    EXPECT_EQ(sets, calls - seeds) << at;
  }
}

}  // namespace
}  // namespace isex::ise
