#include "isex/select/config_curve.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "isex/codegen/schedule.hpp"
#include "test_util.hpp"

namespace isex::select {
namespace {

const hw::CellLibrary& lib() { return hw::CellLibrary::standard_018um(); }

ir::Program one_block_program(util::Rng& rng, int ops) {
  ir::Program p("t");
  const int b = p.add_block("bb0");
  p.block(b).dfg = isex::testing::random_dfg(rng, 4, ops, 0.08);
  p.set_root(p.stmt_loop(100, p.stmt_block(b)));
  return p;
}

TEST(DisjointPool, NoOverlapAndPositiveGain) {
  util::Rng rng(11);
  const auto d = isex::testing::random_dfg(rng, 4, 40, 0.1);
  auto cands = ise::enumerate_candidates(d, lib(), ise::EnumOptions{}, 0, 50);
  const auto pool = disjoint_pool(d, std::move(cands));
  auto covered = d.empty_set();
  for (const auto& c : pool) {
    EXPECT_GT(c.total_gain(), 0);
    EXPECT_FALSE(c.nodes.intersects(covered));
    covered |= c.nodes;
  }
}

// --- Differential pool test ---------------------------------------------------
//
// disjoint_pool tests schedulability incrementally (a forward search from the
// newcomer's consumers through the contracted accepted pool). The reference
// is the contraction-per-candidate loop: codegen::jointly_schedulable over
// every accepted CI plus the newcomer.

std::vector<ise::Candidate> reference_pool(const ir::Dfg& dfg,
                                           std::vector<ise::Candidate> cands) {
  std::sort(cands.begin(), cands.end(),
            [](const ise::Candidate& a, const ise::Candidate& b) {
              if (a.total_gain() != b.total_gain())
                return a.total_gain() > b.total_gain();
              const double da = a.est.area > 0 ? a.total_gain() / a.est.area : 1e18;
              const double db = b.est.area > 0 ? b.total_gain() / b.est.area : 1e18;
              return da > db;
            });
  util::Bitset covered = dfg.empty_set();
  std::vector<util::Bitset> accepted;
  std::vector<ise::Candidate> pool;
  for (auto& c : cands) {
    if (c.total_gain() <= 0 || c.nodes.intersects(covered)) continue;
    accepted.push_back(c.nodes);
    if (!codegen::jointly_schedulable(dfg, accepted)) {
      accepted.pop_back();
      continue;
    }
    covered |= c.nodes;
    pool.push_back(std::move(c));
  }
  return pool;
}

ise::Candidate raw_candidate(const util::Bitset& nodes, double gain,
                             double area) {
  ise::Candidate c;
  c.nodes = nodes;
  c.est.gain_per_exec = gain;
  c.est.area = area;
  return c;
}

/// A random node set: a short random walk over operand/consumer edges (a
/// connected set that may be non-convex), sometimes plus one far node.
util::Bitset random_set(const ir::Dfg& d, util::Rng& rng) {
  util::Bitset s = d.empty_set();
  int v = rng.uniform_int(0, d.num_nodes() - 1);
  s.set(static_cast<std::size_t>(v));
  const int steps = rng.uniform_int(1, 6);
  for (int i = 0; i < steps; ++i) {
    const auto& n = d.node(v);
    const std::size_t deg = n.operands.size() + n.consumers.size();
    if (deg == 0) break;
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(deg) - 1));
    v = k < n.operands.size() ? n.operands[k]
                              : n.consumers[k - n.operands.size()];
    s.set(static_cast<std::size_t>(v));
  }
  if (rng.chance(0.2))
    s.set(static_cast<std::size_t>(rng.uniform_int(0, d.num_nodes() - 1)));
  return s;
}

TEST(DisjointPool, MatchesContractionReferenceOnRandomCandidates) {
  int rejected_disjoint = 0, nonconvex_offered = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(seed * 104729);
    const auto d = isex::testing::random_dfg(rng, 4, 30 + static_cast<int>(seed),
                                             0.1);
    std::vector<ise::Candidate> cands;
    const int n = rng.uniform_int(5, 80);
    for (int i = 0; i < n; ++i) {
      const util::Bitset s = random_set(d, rng);
      if (!d.is_convex(s)) ++nonconvex_offered;
      // Few distinct gains, so the area tie-break orders candidates too.
      cands.push_back(raw_candidate(s, rng.uniform_int(-1, 6),
                                    rng.uniform_int(0, 4)));
    }
    const auto want = reference_pool(d, cands);
    const auto got = disjoint_pool(d, cands);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i].nodes, want[i].nodes) << "seed " << seed << " #" << i;
    // Candidates disjoint from the pool yet refused: the schedulability test
    // decided something.
    util::Bitset covered = d.empty_set();
    for (const auto& c : got) covered |= c.nodes;
    for (const auto& c : cands)
      if (c.total_gain() > 0 && !c.nodes.intersects(covered))
        ++rejected_disjoint;
  }
  EXPECT_GT(nonconvex_offered, 0);
  EXPECT_GT(rejected_disjoint, 0);
}

TEST(DisjointPool, RejectsCycleClosingOnlyThroughTwoAcceptedCis) {
  // x -> a1, a2 -> b1, b2 -> y with A = {a1, a2}, B = {b1, b2}, C = {x, y}.
  // Every pair is jointly schedulable; all three contract to C -> A -> B -> C.
  ir::Dfg d;
  const auto in = d.add(ir::Opcode::kInput);
  const auto x = d.add(ir::Opcode::kAdd, {in, in});
  const auto a1 = d.add(ir::Opcode::kAdd, {x, in});
  const auto a2 = d.add(ir::Opcode::kAdd, {in, in});
  const auto b1 = d.add(ir::Opcode::kXor, {a2, in});
  const auto b2 = d.add(ir::Opcode::kXor, {in, in});
  const auto y = d.add(ir::Opcode::kSub, {b2, in});
  for (auto v : {a1, b1, y}) d.mark_live_out(v);
  auto set_of = [&](std::initializer_list<ir::NodeId> ids) {
    util::Bitset s = d.empty_set();
    for (auto v : ids) s.set(static_cast<std::size_t>(v));
    return s;
  };
  const auto A = set_of({a1, a2}), B = set_of({b1, b2}), C = set_of({x, y});
  for (const auto& pair : {std::vector{A, B}, std::vector{A, C}, std::vector{B, C}})
    ASSERT_TRUE(codegen::jointly_schedulable(d, pair));
  ASSERT_FALSE(codegen::jointly_schedulable(d, {A, B, C}));

  const std::vector<ise::Candidate> cands = {
      raw_candidate(C, 1, 1), raw_candidate(A, 3, 1), raw_candidate(B, 2, 1)};
  const auto pool = disjoint_pool(d, cands);
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[0].nodes, A);
  EXPECT_EQ(pool[1].nodes, B);
  // With C outranking B, B is the one refused.
  const auto pool2 = disjoint_pool(
      d, {raw_candidate(C, 2, 1), raw_candidate(A, 3, 1), raw_candidate(B, 1, 1)});
  ASSERT_EQ(pool2.size(), 2u);
  EXPECT_EQ(pool2[0].nodes, A);
  EXPECT_EQ(pool2[1].nodes, C);
}

class CurveProperty : public ::testing::TestWithParam<int> {};

TEST_P(CurveProperty, CurveIsAValidParetoStaircase) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 13);
  ir::Program p = one_block_program(rng, 50);
  const auto counts = p.wcet_counts(ir::Program::sum_cost(
      [](const ir::Node& n) { return lib().sw_cycles(n); }));
  const auto curve = build_config_curve(p, counts, lib(), CurveOptions{});
  ASSERT_GE(curve.points.size(), 1u);
  EXPECT_DOUBLE_EQ(curve.points.front().area, 0.0);
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    EXPECT_GT(curve.points[i].area, curve.points[i - 1].area);
    EXPECT_LT(curve.points[i].cycles, curve.points[i - 1].cycles);
  }
  // cycles_at is monotone non-increasing in the budget.
  double prev = curve.cycles_at(0);
  for (double a = 0; a <= curve.max_area() + 1; a += 1.0) {
    const double c = curve.cycles_at(a);
    EXPECT_LE(c, prev + 1e-9);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(curve.cycles_at(1e18), curve.best_cycles());
}

TEST_P(CurveProperty, GainNeverExceedsBaseCycles) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 43 + 7);
  ir::Program p = one_block_program(rng, 30);
  const auto counts = p.wcet_counts(ir::Program::sum_cost(
      [](const ir::Node& n) { return lib().sw_cycles(n); }));
  const auto curve = build_config_curve(p, counts, lib(), CurveOptions{});
  for (const auto& pt : curve.points) {
    EXPECT_GT(pt.cycles, 0);
    EXPECT_LE(pt.cycles, curve.base_cycles());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CurveProperty, ::testing::Range(0, 10));

TEST(Curve, IsomorphicSharingNeverWorse) {
  // A program whose block repeats the same (a+b)<<c datapath 4 times: with
  // sharing, one implementation's area unlocks all four gains.
  ir::Program p("iso");
  const int b = p.add_block("bb0");
  auto& d = p.block(b).dfg;
  for (int k = 0; k < 4; ++k) {
    const auto x = d.add(ir::Opcode::kInput);
    const auto y = d.add(ir::Opcode::kInput);
    const auto m1 = d.add(ir::Opcode::kMul, {x, y});
    const auto m2 = d.add(ir::Opcode::kMul, {m1, y});
    const auto a2 = d.add(ir::Opcode::kAdd, {m2, x});
    d.mark_live_out(a2);
  }
  p.set_root(p.stmt_loop(10, p.stmt_block(b)));
  const auto counts = p.wcet_counts(ir::Program::sum_cost(
      [](const ir::Node& n) { return lib().sw_cycles(n); }));
  CurveOptions shared;
  CurveOptions solo;
  solo.share_isomorphic = false;
  const auto cs = build_config_curve(p, counts, lib(), shared);
  const auto cn = build_config_curve(p, counts, lib(), solo);
  // At every budget, sharing achieves at most the unshared cycle count.
  for (double a = 0; a <= cn.max_area(); a += 5)
    EXPECT_LE(cs.cycles_at(a), cn.cycles_at(a) + 1e-9);
  // And the max areas differ: sharing needs one implementation only.
  EXPECT_LT(cs.max_area(), cn.max_area());
}

}  // namespace
}  // namespace isex::select
