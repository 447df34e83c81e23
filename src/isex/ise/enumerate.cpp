#include "isex/ise/enumerate.hpp"

#include <algorithm>
#include <unordered_set>

#include "isex/obs/trace.hpp"

namespace isex::ise {

namespace {

/// Approximate bytes one retained subgraph costs (bitset words + container
/// bookkeeping) — the unit the enumerators charge against a memory budget.
std::size_t subgraph_bytes(const ir::Dfg& dfg) {
  return 8 * ((static_cast<std::size_t>(dfg.num_nodes()) + 63) / 64) + 64;
}

/// Progress record one enumeration phase fills in: whether the budget cut it
/// short and how many of its seed nodes it finished, the basis for the
/// coverage-style optimality gap of enumerate_candidates_bounded().
struct EnumStats {
  bool truncated = false;
  long seeds_total = 0;
  long seeds_processed = 0;
};

/// Grows the MaxMISO of `root`: absorb a predecessor when it is valid and
/// all of its consumers are already inside (so only root's value escapes).
util::Bitset miso_grow(const ir::Dfg& dfg, const util::Bitset& valid,
                       int root) {
  util::Bitset s = dfg.empty_set();
  s.set(static_cast<std::size_t>(root));
  bool changed = true;
  while (changed) {
    changed = false;
    // Iterate over a snapshot; s only grows.
    for (int v : s.to_vector()) {
      for (std::int32_t o : dfg.operands_of(v)) {
        const auto oi = static_cast<std::size_t>(o);
        if (s.test(oi) || !valid.test(oi)) continue;
        if (dfg.node(o).op == ir::Opcode::kConst) continue;
        if (dfg.node(o).live_out) continue;
        bool absorbed = true;
        for (std::int32_t cons : dfg.consumers_of(o))
          if (!s.test(static_cast<std::size_t>(cons))) {
            absorbed = false;
            break;
          }
        if (absorbed) {
          s.set(oi);
          changed = true;
        }
      }
    }
  }
  return s;
}

std::vector<Candidate> maximal_misos_impl(const ir::Dfg& dfg,
                                          const hw::CellLibrary& lib,
                                          const Constraints& c, int block,
                                          double exec_freq,
                                          robust::Budget* budget,
                                          EnumStats* stats) {
  ISEX_SPAN_CAT("ise.maximal_misos", "ise");
  long input_rejects = 0, duplicates = 0;
  std::vector<Candidate> out;
  std::unordered_set<util::Bitset, util::BitsetHash> seen;
  const std::size_t entry_bytes = subgraph_bytes(dfg);
  const util::Bitset& valid = dfg.valid_mask();
  if (stats != nullptr) stats->seeds_total = dfg.num_nodes();
  for (int root = 0; root < dfg.num_nodes(); ++root) {
    if (budget != nullptr && budget->charge()) {
      if (stats != nullptr) stats->truncated = true;
      break;
    }
    if (stats != nullptr) ++stats->seeds_processed;
    if (!valid.test(static_cast<std::size_t>(root))) continue;
    if (dfg.node(root).op == ir::Opcode::kConst) continue;
    util::Bitset s = miso_grow(dfg, valid, root);
    if (s.count() < 2) continue;  // single nodes are not worth an instruction
    if (budget != nullptr && budget->charge_mem(entry_bytes)) {
      if (stats != nullptr) {
        stats->truncated = true;
        --stats->seeds_processed;  // this root's pattern was dropped
      }
      break;
    }
    if (!seen.insert(s).second) {
      ++duplicates;
      continue;
    }
    // A MaxMISO is convex by construction (it is closed under "all consumers
    // inside"), has one output, and only the input constraint can fail.
    if (dfg.input_count(s) > c.max_inputs) {
      ++input_rejects;
      continue;
    }
    out.push_back(make_candidate(dfg, s, lib, block, exec_freq));
  }
  ISEX_COUNT_ADD("ise.miso.candidates", out.size());
  ISEX_COUNT_ADD("ise.miso.input_rejects", input_rejects);
  ISEX_COUNT_ADD("ise.miso.duplicates", duplicates);
  return out;
}

}  // namespace

std::vector<Candidate> maximal_misos(const ir::Dfg& dfg,
                                     const hw::CellLibrary& lib,
                                     const Constraints& c, int block,
                                     double exec_freq) {
  return maximal_misos_impl(dfg, lib, c, block, exec_freq, nullptr, nullptr);
}

namespace {

/// One level of the growth DFS: the subgraph s (depth + 1 nodes) and
/// everything the grow step needs about it, maintained incrementally as the
/// parent adds one node, so no step rescans s.
struct GrowFrame {
  util::Bitset s;     // current subgraph
  util::Bitset anc;   // union of ancestors(v) over v in s
  util::Bitset desc;  // union of descendants(v) over v in s
  util::Bitset ins;   // register inputs: non-constant operands outside s
  int num_ins = 0;    // |ins|
  std::vector<int> frontier;  // sorted unvisited extensions of s (see grow)
};

/// Grow state a thread reuses for every seed it enumerates: the depth
/// frames, the exclusion set and a neighbour buffer. A thread runs one
/// enumeration at a time (grow never waits on the pool, so it never helps
/// run another block's), so the scratch is never shared, and nothing is
/// allocated per grow step once it has grown.
struct GrowScratch {
  std::vector<GrowFrame> frames;
  util::Bitset excluded;  // finished extensions of the frames on the stack
  std::vector<int> nbrs;
};

GrowScratch& grow_scratch() {
  thread_local GrowScratch scratch;
  return scratch;
}

/// Growth enumeration state shared across the recursion.
struct GrowCtx {
  const ir::Dfg& dfg;
  const hw::CellLibrary& lib;
  const EnumOptions& opts;
  int block;
  double exec_freq;
  long budget;  // remaining grow-call allowance (max_candidates countdown)
  std::vector<Candidate>* out;
  bool truncated = false;  // set once the robust budget stops
  // Search statistics, published to the obs registry once per enumeration.
  long grow_calls = 0;
  long input_rejects = 0;
  long output_rejects = 0;
  long convexity_rejects = 0;
  GrowScratch& scratch = grow_scratch();
};

/// True iff u may join a subgraph grown from `seed` that does not hold it.
bool eligible(const ir::Dfg& dfg, int seed, int u) {
  return u > seed && dfg.valid_mask().test(static_cast<std::size_t>(u)) &&
         dfg.node(u).op != ir::Opcode::kConst;
}

/// Fills frames[depth].frontier: the valid non-constant neighbours of s with
/// id > seed that are neither in s nor excluded, sorted. Depth 0 scans the
/// seed; deeper frames merge the parent's frontier minus `added` (the node
/// this frame added) with added's eligible neighbours, O(frontier + degree).
void build_frontier(GrowCtx& ctx, std::size_t depth, int seed, int added) {
  const ir::Dfg& dfg = ctx.dfg;
  GrowFrame& f = ctx.scratch.frames[depth];
  const util::Bitset& excluded = ctx.scratch.excluded;
  std::vector<int>& nb = ctx.scratch.nbrs;
  nb.clear();
  auto consider = [&](int u) {
    const auto ui = static_cast<std::size_t>(u);
    if (!f.s.test(ui) && !excluded.test(ui) && eligible(dfg, seed, u))
      nb.push_back(u);
  };
  for (std::int32_t o : dfg.operands_of(added)) consider(o);
  for (std::int32_t c : dfg.consumers_of(added)) consider(c);
  std::sort(nb.begin(), nb.end());
  nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
  f.frontier.clear();
  if (depth == 0) {
    f.frontier.assign(nb.begin(), nb.end());
    return;
  }
  const std::vector<int>& up = ctx.scratch.frames[depth - 1].frontier;
  auto a = up.begin();
  auto b = nb.begin();
  while (a != up.end() || b != nb.end()) {
    const bool from_up = b == nb.end() || (a != up.end() && *a < *b);
    if (!from_up && a != up.end() && *a == *b) ++a;  // in both: take once
    const int next = from_up ? *a++ : *b++;
    if (next != added && !excluded.test(static_cast<std::size_t>(next)))
      f.frontier.push_back(next);
  }
}

/// Fills frames[depth + 1] with frames[depth]'s subgraph plus node u.
void extend_frame(GrowCtx& ctx, std::size_t depth, int u) {
  const GrowFrame& f = ctx.scratch.frames[depth];
  GrowFrame& child = ctx.scratch.frames[depth + 1];
  const auto ui = static_cast<std::size_t>(u);
  child.s = f.s;
  child.s.set(ui);
  child.anc = f.anc;
  child.desc = f.desc;
  ctx.dfg.reach_union_add(u, child.anc, child.desc);
  // ins(s + u) = (ins(s) - u) ∪ (operands(u) - (s + u) - constants).
  child.ins = f.ins;
  child.num_ins = f.num_ins;
  if (child.ins.test(ui)) {
    child.ins.reset(ui);
    --child.num_ins;
  }
  for (std::int32_t o : ctx.dfg.operands_of(u)) {
    const auto oi = static_cast<std::size_t>(o);
    if (child.s.test(oi) || child.ins.test(oi) ||
        ir::is_free_input(ctx.dfg.node(o).op))
      continue;
    child.ins.set(oi);
    ++child.num_ins;
  }
}

/// Expands the subgraph in frames[depth] (connected, valid nodes only, all
/// ids >= seed; `added` is the node its parent added, the seed at depth 0)
/// by every unvisited neighbour with id > seed; emits it if legal. Each
/// frame carries the running ancestor/descendant unions and input set, so
/// the legality tests cost O(words + degree) per step instead of a rescan of
/// the subgraph.
///
/// Visited test: within one seed, s + u has already been visited iff u is
/// in `excluded`, the set of extensions whose subtree a frame on the DFS
/// stack has finished. Sets only grow, so the search walks a DAG; when the
/// subtree of t = s_i + w returns, it has visited every connected superset
/// of t (within max_candidate_nodes), and no set on the stack can reach t.
/// So a later s ⊇ s_i reaches a visited set through u iff u = w for such a
/// finished w of one of its stack frames. Each frame sets its extensions'
/// bits as they finish and clears them on return. build_frontier drops
/// excluded nodes up front: while a frame runs, its ancestors' bits do not
/// change and its own bits cover only entries it has passed. Once a cap or
/// budget cuts a subtree short, no further grow call expands anything, so
/// the frames still unwinding see the same freshness a table of visited
/// sets would.
void grow(GrowCtx& ctx, std::size_t depth, int seed, int added) {
  if (ctx.budget <= 0 || ctx.truncated) return;
  if (ctx.opts.budget != nullptr && ctx.opts.budget->charge()) {
    ctx.truncated = true;
    return;
  }
  --ctx.budget;
  ++ctx.grow_calls;
  const ir::Dfg& dfg = ctx.dfg;
  GrowFrame& f = ctx.scratch.frames[depth];
  const std::size_t size = depth + 1;  // every level adds one node
  // Legality tests in the order of the original single conjunction; the
  // split only attributes the first failing reason.
  if (size >= 2) {
    if (f.num_ins > ctx.opts.constraints.max_inputs) {
      ++ctx.input_rejects;
    } else if (dfg.output_count(f.s) > ctx.opts.constraints.max_outputs) {
      ++ctx.output_rejects;
    } else if (!dfg.is_convex_unions(f.s, f.anc, f.desc)) {
      ++ctx.convexity_rejects;
    } else {
      ctx.out->push_back(
          make_candidate(dfg, f.s, ctx.lib, ctx.block, ctx.exec_freq));
    }
  }
  if (size >= static_cast<std::size_t>(ctx.opts.max_candidate_nodes)) return;

  build_frontier(ctx, depth, seed, added);
  util::Bitset& excluded = ctx.scratch.excluded;
  // The child recursion reads this frontier but never resizes it.
  for (int u : f.frontier) {
    if (ctx.truncated) return;
    if (ctx.opts.budget != nullptr &&
        ctx.opts.budget->charge_mem(subgraph_bytes(ctx.dfg))) {
      ctx.truncated = true;
      return;
    }
    extend_frame(ctx, depth, u);
    grow(ctx, depth + 1, seed, u);
    excluded.set(static_cast<std::size_t>(u));
  }
  for (int u : f.frontier) excluded.reset(static_cast<std::size_t>(u));
}

/// Sizes the frames for the deepest possible search node, seeds frame 0 and
/// empties the exclusion set (a truncated seed may have left bits behind).
void init_frames(GrowCtx& ctx, int seed) {
  const auto depth_cap = static_cast<std::size_t>(
      std::max(2, ctx.opts.max_candidate_nodes) + 2);
  std::vector<GrowFrame>& frames = ctx.scratch.frames;
  if (frames.size() < depth_cap) frames.resize(depth_cap);
  const ir::Dfg& dfg = ctx.dfg;
  GrowFrame& f0 = frames[0];
  f0.s = dfg.empty_set();
  f0.s.set(static_cast<std::size_t>(seed));
  f0.anc = dfg.ancestors(seed);
  f0.desc = dfg.descendants(seed);
  f0.ins = dfg.empty_set();
  f0.num_ins = 0;
  for (std::int32_t o : dfg.operands_of(seed)) {
    const auto oi = static_cast<std::size_t>(o);
    if (f0.ins.test(oi) || ir::is_free_input(dfg.node(o).op)) continue;
    f0.ins.set(oi);
    ++f0.num_ins;
  }
  ctx.scratch.excluded = dfg.empty_set();
}

/// Body of enumerate_connected() with budget progress reported via `stats`:
/// one thread, seeds in id order, direct budget charging. Blocks run
/// concurrently with each other in the selection layer, never within.
std::vector<Candidate> enumerate_connected_impl(const ir::Dfg& dfg,
                                                const hw::CellLibrary& lib,
                                                const EnumOptions& opts,
                                                int block, double exec_freq,
                                                EnumStats* stats) {
  ISEX_SPAN_CAT("ise.enumerate_connected", "ise");
  std::vector<Candidate> out;
  GrowCtx ctx{dfg, lib, opts, block, exec_freq, opts.max_candidates, &out};
  const util::Bitset& valid = dfg.valid_mask();
  if (stats != nullptr) stats->seeds_total = dfg.num_nodes();
  for (int seed = 0; seed < dfg.num_nodes(); ++seed) {
    if (ctx.truncated) break;
    if (stats != nullptr) ++stats->seeds_processed;
    if (!valid.test(static_cast<std::size_t>(seed))) continue;
    if (dfg.node(seed).op == ir::Opcode::kConst) continue;
    init_frames(ctx, seed);
    grow(ctx, 0, seed, seed);
    if (ctx.budget <= 0) break;
  }
  if (stats != nullptr && ctx.truncated) {
    stats->truncated = true;
    if (stats->seeds_processed > 0) --stats->seeds_processed;  // cut mid-seed
  }
  ISEX_COUNT_ADD("ise.enum.candidates", out.size());
  ISEX_COUNT_ADD("ise.enum.grow_calls", ctx.grow_calls);
  ISEX_COUNT_ADD("ise.enum.input_rejects", ctx.input_rejects);
  ISEX_COUNT_ADD("ise.enum.output_rejects", ctx.output_rejects);
  ISEX_COUNT_ADD("ise.enum.convexity_rejects", ctx.convexity_rejects);
  if (ctx.budget <= 0) ISEX_COUNT("ise.enum.budget_exhausted");
  if (ctx.truncated) ISEX_COUNT("ise.enum.robust_budget_truncations");
  return out;
}

}  // namespace

std::vector<Candidate> enumerate_connected(const ir::Dfg& dfg,
                                           const hw::CellLibrary& lib,
                                           const EnumOptions& opts, int block,
                                           double exec_freq) {
  return enumerate_connected_impl(dfg, lib, opts, block, exec_freq, nullptr);
}

std::vector<Candidate> enumerate_disconnected(
    const ir::Dfg& dfg, const hw::CellLibrary& lib,
    const std::vector<Candidate>& connected, const Constraints& constraints,
    int max_seeds, int max_pairs) {
  ISEX_SPAN_CAT("ise.enumerate_disconnected", "ise");
  long legality_rejects = 0, edge_rejects = 0;
  // Work from the highest-gain connected candidates.
  std::vector<const Candidate*> seeds;
  seeds.reserve(connected.size());
  for (const auto& c : connected) seeds.push_back(&c);
  std::sort(seeds.begin(), seeds.end(), [](const Candidate* a, const Candidate* b) {
    return a->est.gain_per_exec > b->est.gain_per_exec;
  });
  if (static_cast<int>(seeds.size()) > max_seeds)
    seeds.resize(static_cast<std::size_t>(max_seeds));

  std::vector<Candidate> out;
  std::unordered_set<util::Bitset, util::BitsetHash> seen;
  for (std::size_t i = 0; i < seeds.size() &&
                          static_cast<int>(out.size()) < max_pairs;
       ++i) {
    for (std::size_t j = i + 1; j < seeds.size() &&
                                static_cast<int>(out.size()) < max_pairs;
         ++j) {
      const Candidate& a = *seeds[i];
      const Candidate& b = *seeds[j];
      if (a.nodes.intersects(b.nodes)) continue;
      // Node-disjoint is not enough: an edge between the components would
      // serialize them. Reject pairs where one feeds the other.
      bool connected_pair = false;
      a.nodes.for_each([&](std::size_t v) {
        for (std::int32_t c : dfg.consumers_of(static_cast<int>(v)))
          if (b.nodes.test(static_cast<std::size_t>(c))) connected_pair = true;
        for (std::int32_t o : dfg.operands_of(static_cast<int>(v)))
          if (b.nodes.test(static_cast<std::size_t>(o))) connected_pair = true;
      });
      if (connected_pair) {
        ++edge_rejects;
        continue;
      }
      util::Bitset merged = a.nodes;
      merged |= b.nodes;
      if (!seen.insert(merged).second) continue;
      if (!is_legal(dfg, merged, constraints)) {
        ++legality_rejects;
        continue;
      }
      out.push_back(
          make_candidate(dfg, merged, lib, a.block, a.exec_freq));
    }
  }
  ISEX_COUNT_ADD("ise.disconnected.pairs", out.size());
  ISEX_COUNT_ADD("ise.disconnected.edge_rejects", edge_rejects);
  ISEX_COUNT_ADD("ise.disconnected.legality_rejects", legality_rejects);
  return out;
}

std::vector<Candidate> enumerate_candidates(const ir::Dfg& dfg,
                                            const hw::CellLibrary& lib,
                                            const EnumOptions& opts, int block,
                                            double exec_freq) {
  return enumerate_candidates_bounded(dfg, lib, opts, block, exec_freq).value;
}

robust::Outcome<std::vector<Candidate>> enumerate_candidates_bounded(
    const ir::Dfg& dfg, const hw::CellLibrary& lib, const EnumOptions& opts,
    int block, double exec_freq) {
  ISEX_SPAN_CAT("ise.enumerate_candidates", "ise");
  EnumStats connected_stats;
  std::vector<Candidate> out = enumerate_connected_impl(
      dfg, lib, opts, block, exec_freq, &connected_stats);
  std::unordered_set<util::Bitset, util::BitsetHash> seen;
  for (const Candidate& c : out) seen.insert(c.nodes);
  EnumStats miso_stats;
  for (Candidate& m : maximal_misos_impl(dfg, lib, opts.constraints, block,
                                         exec_freq, opts.budget, &miso_stats))
    if (seen.insert(m.nodes).second) out.push_back(std::move(m));
#if ISEX_OBS_ENABLED
  for (const Candidate& c : out)
    ISEX_HIST("ise.candidate_nodes", c.nodes.count());
#endif
  robust::Outcome<std::vector<Candidate>> res;
  res.value = std::move(out);
  const bool truncated = connected_stats.truncated || miso_stats.truncated;
  res.status =
      truncated ? robust::Status::kBudgetTruncated : robust::Status::kExact;
  if (truncated) {
    // Coverage bound: the fraction of seed nodes (over both phases) the
    // enumeration never finished. Not a gain bound — candidates found are
    // individually legal regardless.
    const long total =
        connected_stats.seeds_total + miso_stats.seeds_total;
    const long done =
        connected_stats.seeds_processed + miso_stats.seeds_processed;
    res.optimality_gap =
        total > 0 ? 1.0 - static_cast<double>(done) / static_cast<double>(total)
                  : 1.0;
    res.detail = "enumeration stopped after " + std::to_string(done) + "/" +
                 std::to_string(total) + " seeds";
  }
  if (opts.budget != nullptr) res.budget = opts.budget->report();
  return res;
}

}  // namespace isex::ise
