#include "isex/ise/enumerate.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "isex/ise/visited_table.hpp"
#include "isex/obs/trace.hpp"
#include "isex/util/task_pool.hpp"

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

/// True when this enumeration may fan out across worker threads. Budgets
/// with deterministic limits (nodes/memory) pin the exact serial schedule so
/// truncation points stay byte-reproducible; wall-clock-only budgets are
/// nondeterministic either way and may be shared across workers.
bool parallel_allowed(const robust::Budget* b) {
  return util::max_threads() > 1 &&
         (b == nullptr || !b->deterministic_limits());
}

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

std::vector<Candidate> maximal_misos_serial(const ir::Dfg& dfg,
                                            const hw::CellLibrary& lib,
                                            const Constraints& c, int block,
                                            double exec_freq,
                                            robust::Budget* budget,
                                            EnumStats* stats) {
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

/// Parallel MaxMISO enumeration, byte-identical to the serial path: grow and
/// input-check every root concurrently, dedup serially in root order (the
/// order decides which root "owns" a repeated pattern), then build the
/// accepted candidates concurrently and append them in root order.
std::vector<Candidate> maximal_misos_parallel(const ir::Dfg& dfg,
                                              const hw::CellLibrary& lib,
                                              const Constraints& c, int block,
                                              double exec_freq,
                                              EnumStats* stats) {
  dfg.prepare();
  const util::Bitset& valid = dfg.valid_mask();
  const int n = dfg.num_nodes();
  if (stats != nullptr) {
    stats->seeds_total = n;
    stats->seeds_processed = n;
  }
  std::vector<int> roots;
  for (int root = 0; root < n; ++root)
    if (valid.test(static_cast<std::size_t>(root)) &&
        dfg.node(root).op != ir::Opcode::kConst)
      roots.push_back(root);

  struct Grown {
    util::Bitset s;
    bool big = false;       // count() >= 2
    bool inputs_ok = false;  // within max_inputs
  };
  std::vector<Grown> grown(roots.size());
  util::parallel_for(roots.size(), [&](std::size_t i) {
    Grown& g = grown[i];
    g.s = miso_grow(dfg, valid, roots[i]);
    g.big = g.s.count() >= 2;
    if (g.big) g.inputs_ok = dfg.input_count(g.s) <= c.max_inputs;
  });

  long input_rejects = 0, duplicates = 0;
  std::unordered_set<util::Bitset, util::BitsetHash> seen;
  std::vector<const util::Bitset*> accepted;
  for (const Grown& g : grown) {
    if (!g.big) continue;
    if (!seen.insert(g.s).second) {
      ++duplicates;
      continue;
    }
    if (!g.inputs_ok) {
      ++input_rejects;
      continue;
    }
    accepted.push_back(&g.s);
  }

  std::vector<Candidate> out(accepted.size());
  util::parallel_for(accepted.size(), [&](std::size_t i) {
    out[i] = make_candidate(dfg, *accepted[i], lib, block, exec_freq);
  });
  ISEX_COUNT_ADD("ise.miso.candidates", out.size());
  ISEX_COUNT_ADD("ise.miso.input_rejects", input_rejects);
  ISEX_COUNT_ADD("ise.miso.duplicates", duplicates);
  return out;
}

std::vector<Candidate> maximal_misos_impl(const ir::Dfg& dfg,
                                          const hw::CellLibrary& lib,
                                          const Constraints& c, int block,
                                          double exec_freq,
                                          robust::Budget* budget,
                                          EnumStats* stats) {
  ISEX_SPAN_CAT("ise.maximal_misos", "ise");
  // Any budget (even time-only) keeps the serial loop: the per-root charge
  // order decides where a truncated MISO pass cuts, and the serial loop makes
  // that cut a prefix of the root order.
  if (budget == nullptr && util::max_threads() > 1 && dfg.num_nodes() > 1)
    return maximal_misos_parallel(dfg, lib, c, block, exec_freq, stats);
  return maximal_misos_serial(dfg, lib, c, block, exec_freq, budget, stats);
}

}  // namespace

std::vector<Candidate> maximal_misos(const ir::Dfg& dfg,
                                     const hw::CellLibrary& lib,
                                     const Constraints& c, int block,
                                     double exec_freq) {
  return maximal_misos_impl(dfg, lib, c, block, exec_freq, nullptr, nullptr);
}

namespace {

/// Fixed per-node Zobrist key (splitmix64 of the id); the key of a node set
/// is the XOR over its members, so adding a node is one XOR.
std::uint64_t node_key(int v) {
  std::uint64_t z = static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One level of the growth DFS: the subgraph s (depth + 1 nodes) and
/// everything the grow step needs about it, maintained incrementally as the
/// parent adds one node, so no step rescans s.
struct GrowFrame {
  util::Bitset s;     // current subgraph
  util::Bitset anc;   // union of ancestors(v) over v in s
  util::Bitset desc;  // union of descendants(v) over v in s
  util::Bitset ins;   // register inputs: non-constant operands outside s
  int num_ins = 0;    // |ins|
  std::uint64_t key = 0;  // Zobrist key of s
  int max_node = 0;       // largest id in s (end of the visited window)
  std::vector<int> frontier;  // sorted eligible neighbours of s
};

/// Grow state a thread reuses for every seed it enumerates: the depth
/// frames, the visited table and a neighbour buffer. A thread runs one
/// seed's subtree at a time (grow never waits on the pool), so the scratch
/// is never shared, and nothing is allocated per seed once it has grown.
struct GrowScratch {
  std::vector<GrowFrame> frames;
  VisitedTable visited;
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
  robust::Budget* rbudget = nullptr;     // serial path: direct charging
  robust::BudgetShare* share = nullptr;  // parallel path: strided charging
  std::vector<long>* emit_call = nullptr;  // parallel: call index per emission
  // Parallel wave cancellation (see enumerate_connected_parallel): this
  // seed's slot in the wave's shared progress array, published periodically;
  // smaller-slot peers' progress shrinks this seed's effective call cap.
  std::atomic<long>* wave_progress = nullptr;
  std::size_t wave_slot = 0;
  long wave_cap0 = 0;
  bool truncated = false;                  // set once the robust budget stops
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

/// How many grow calls a wave seed executes between progress publications.
/// Smaller = tighter bound on overshoot past an exhausted cap, larger =
/// less cache traffic on the shared wave counters.
constexpr long kWavePollStride = 128;

/// Fills frames[depth].frontier: the valid non-constant neighbours of s with
/// id > seed that are not in s, sorted. Depth 0 scans the seed; deeper
/// frames merge the parent's frontier minus `added` (the node this frame
/// added) with added's eligible neighbours, O(frontier + degree).
void build_frontier(GrowCtx& ctx, std::size_t depth, int seed, int added) {
  const ir::Dfg& dfg = ctx.dfg;
  GrowFrame& f = ctx.scratch.frames[depth];
  std::vector<int>& nb = ctx.scratch.nbrs;
  nb.clear();
  auto consider = [&](int u) {
    if (!f.s.test(static_cast<std::size_t>(u)) && eligible(dfg, seed, u))
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
    if (next != added) f.frontier.push_back(next);
  }
}

/// Fills frames[depth + 1] with frames[depth]'s subgraph plus node u.
void extend_frame(GrowCtx& ctx, std::size_t depth, int u, std::uint64_t key) {
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
  child.key = key;
  child.max_node = std::max(f.max_node, u);
}

/// Expands the subgraph in frames[depth] (connected, valid nodes only, all
/// ids >= seed; `added` is the node its parent added, the seed at depth 0)
/// by every neighbour with id > seed; emits it if legal. Each frame carries
/// the running ancestor/descendant unions, input set and Zobrist key, so the
/// legality tests and the visited probe cost O(words + degree) per step
/// instead of a rescan of the subgraph.
void grow(GrowCtx& ctx, std::size_t depth, int seed, int added) {
  if (ctx.budget <= 0 || ctx.truncated) return;
  if (ctx.wave_progress != nullptr && ctx.grow_calls % kWavePollStride == 0) {
    // Publish this seed's progress and re-derive the effective cap from the
    // published progress of smaller-slot wave peers. cap0 - sum(peers) is
    // always an upper bound on this seed's true serial allowance (the
    // counters only grow, and a stale relaxed load only loosens the bound),
    // so cutting the local budget down to it cannot change the replayed
    // output — it only stops work the replay would discard anyway.
    ctx.wave_progress[ctx.wave_slot].store(ctx.grow_calls,
                                           std::memory_order_relaxed);
    long consumed = 0;
    for (std::size_t j = 0; j < ctx.wave_slot; ++j)
      consumed += ctx.wave_progress[j].load(std::memory_order_relaxed);
    const long allowance = ctx.wave_cap0 - consumed - ctx.grow_calls;
    if (allowance < ctx.budget) ctx.budget = allowance;
    if (ctx.budget <= 0) return;
  }
  if (ctx.rbudget != nullptr && ctx.rbudget->charge()) {
    ctx.truncated = true;
    return;
  }
  if (ctx.share != nullptr && ctx.share->charge()) {
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
      if (ctx.emit_call != nullptr) ctx.emit_call->push_back(ctx.grow_calls);
      ctx.out->push_back(
          make_candidate(dfg, f.s, ctx.lib, ctx.block, ctx.exec_freq));
    }
  }
  if (size >= static_cast<std::size_t>(ctx.opts.max_candidate_nodes)) return;

  build_frontier(ctx, depth, seed, added);
  // Visited window: every set of this seed has its lowest bit in the seed's
  // word, so words before it are zero and need not be stored.
  const std::size_t lo = static_cast<std::size_t>(seed) >> 6;
  const std::span<const std::uint64_t> words = f.s.words();
  // Most probes find a set already visited; loading all their slots up
  // front overlaps the cache misses.
  for (int u : f.frontier) ctx.scratch.visited.prefetch(f.key ^ node_key(u));
  for (std::size_t k = 0; k < f.frontier.size(); ++k) {
    if (ctx.truncated) return;
    // The child recursion reads this frontier but never resizes it.
    const int u = f.frontier[k];
    const auto ui = static_cast<std::size_t>(u);
    const std::uint64_t key = f.key ^ node_key(u);
    const std::size_t hi = static_cast<std::size_t>(std::max(f.max_node, u)) >> 6;
    f.s.set(ui);  // probe s + u in place, without building the child
    const bool fresh =
        ctx.scratch.visited.insert(key, words.subspan(lo, hi - lo + 1));
    f.s.reset(ui);
    if (!fresh) continue;
    if (ctx.rbudget != nullptr &&
        ctx.rbudget->charge_mem(subgraph_bytes(ctx.dfg))) {
      ctx.truncated = true;
      return;
    }
    if (ctx.share != nullptr && ctx.share->charge_mem(subgraph_bytes(ctx.dfg))) {
      ctx.truncated = true;
      return;
    }
    extend_frame(ctx, depth, u, key);
    grow(ctx, depth + 1, seed, u);
  }
}

/// Sizes the frames for the deepest possible search node, seeds frame 0 and
/// empties the visited table (sets of earlier seeds can never recur).
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
  f0.key = node_key(seed);
  f0.max_node = seed;
  ctx.scratch.visited.reset();
}

/// Exact legacy schedule: one thread, seeds in id order, one visited table
/// reset per seed, direct budget charging.
std::vector<Candidate> enumerate_connected_serial(const ir::Dfg& dfg,
                                                  const hw::CellLibrary& lib,
                                                  const EnumOptions& opts,
                                                  int block, double exec_freq,
                                                  EnumStats* stats) {
  std::vector<Candidate> out;
  GrowCtx ctx{dfg, lib, opts, block, exec_freq, opts.max_candidates, &out,
              opts.budget};
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

/// Result of one seed's full subtree, run with a *local* grow-call cap.
struct SeedRun {
  std::vector<Candidate> cands;
  std::vector<long> emit_call;  // 1-based grow-call index at each emission
  long calls = 0;               // grow calls executed
  bool capped = false;          // local cap hit (subtree not exhausted)
  bool time_stopped = false;    // shared wall-clock budget stopped this seed
  long input_rejects = 0, output_rejects = 0, convexity_rejects = 0;
};

SeedRun run_seed(const ir::Dfg& dfg, const hw::CellLibrary& lib,
                 const EnumOptions& opts, int block, double exec_freq,
                 int seed, long local_cap, robust::Budget* shared,
                 std::atomic<long>* wave_progress, std::size_t wave_slot) {
  SeedRun r;
  robust::BudgetShare share(shared);
  GrowCtx ctx{dfg, lib, opts, block, exec_freq, local_cap, &r.cands, nullptr};
  ctx.share = shared != nullptr ? &share : nullptr;
  ctx.emit_call = &r.emit_call;
  ctx.wave_progress = wave_progress;
  ctx.wave_slot = wave_slot;
  ctx.wave_cap0 = local_cap;
  init_frames(ctx, seed);
  grow(ctx, 0, seed, seed);
  // Publish the final count so peers still running stop sooner.
  wave_progress[wave_slot].store(ctx.grow_calls, std::memory_order_relaxed);
  r.calls = ctx.grow_calls;
  r.capped = ctx.budget <= 0;
  r.time_stopped = ctx.truncated;
  r.input_rejects = ctx.input_rejects;
  r.output_rejects = ctx.output_rejects;
  r.convexity_rejects = ctx.convexity_rejects;
  return r;
}

/// Work-stealing fan-out over enumeration subtrees (one per seed), followed
/// by a serial replay that reconstructs the exact output of the legacy
/// serial loop.
///
/// Why this is byte-identical when no wall-clock budget interferes: each
/// subgraph in seed k's subtree has minimum node id k (growth only adds ids
/// > seed), so the per-seed visited tables see exactly the sets the serial
/// loop sees, and within one seed the DFS order is unchanged. The only
/// cross-seed coupling is the global max_candidates grow-call cap. Serial
/// semantics: a grow call executes iff the remaining allowance was positive
/// at entry, so a candidate emitted at (1-based) call e of seed k survives
/// iff e <= allowance left when seed k started. Each seed therefore runs
/// with a local cap (the allowance at its wave's start, an upper bound on
/// its serial allowance), records the call index of every emission, and the
/// replay walks seeds in id order, trims each candidate list against the
/// true remaining allowance, and decrements it by the calls serial would
/// have executed (min(calls, remaining)). Waves of a few seeds per worker
/// keep the overshoot past an exhausted cap bounded by one wave.
///
/// Wave sizing: output is wave-size independent (each seed's local cap is an
/// upper bound on its serial allowance for ANY wave grouping, and the replay
/// trims against the true allowance either way), so wave length is purely a
/// performance knob. Waves start small — the seeds of the wave that straddles
/// an exhausted cap may each run to their local cap, so a cap that binds
/// early wastes little — and double up to a bound, so the fixed scheduling
/// cost of a parallel region is amortised over ever more seeds on large
/// blocks and the straddling wave stays proportionate to the work done
/// before it.
///
/// Cap-binding runs additionally cancel cooperatively: each seed publishes
/// its grow-call count into a shared per-wave progress array every
/// kWavePollStride calls, and shrinks its own budget to
/// cap0 - sum(progress of smaller-slot peers) - own calls. That expression
/// never drops below the seed's true serial allowance (peer counters are
/// monotone and stale reads only loosen it), so the replayed output is
/// untouched; it just stops seeds from exploring work past the point the
/// replay would discard, bounding the overshoot near one poll stride per
/// seed instead of the whole wave running to the cap.
std::vector<Candidate> enumerate_connected_parallel(
    const ir::Dfg& dfg, const hw::CellLibrary& lib, const EnumOptions& opts,
    int block, double exec_freq, EnumStats* stats) {
  dfg.prepare();
  const util::Bitset& valid = dfg.valid_mask();
  const int n = dfg.num_nodes();
  if (stats != nullptr) stats->seeds_total = n;

  std::vector<int> eligible;
  for (int seed = 0; seed < n; ++seed)
    if (valid.test(static_cast<std::size_t>(seed)) &&
        dfg.node(seed).op != ir::Opcode::kConst)
      eligible.push_back(seed);

  std::vector<Candidate> out;
  long remaining = opts.max_candidates;
  long grow_calls = 0, input_rejects = 0, output_rejects = 0,
       convexity_rejects = 0;
  bool cap_stopped = false, time_stopped = false;
  long processed = 0;  // replayed seeds_processed, serial semantics
  int id_cursor = 0;   // first graph id not yet accounted in the replay

  const std::size_t wave_min =
      static_cast<std::size_t>(util::max_threads()) * 2;
  const std::size_t wave_max = wave_min * 16;
  std::size_t wave_len = wave_min;
  std::vector<SeedRun> runs;
  for (std::size_t ei = 0; ei < eligible.size() && !cap_stopped && !time_stopped;
       ei += wave_len, wave_len = std::min(wave_len * 2, wave_max)) {
    const std::size_t count = std::min(wave_len, eligible.size() - ei);
    if (runs.size() < count) runs.resize(count);
    const long cap = remaining;  // every seed's serial allowance is <= this
    std::vector<std::atomic<long>> progress(count);  // zero-initialised
    util::parallel_for(count, [&](std::size_t i) {
      runs[i] = run_seed(dfg, lib, opts, block, exec_freq,
                         eligible[ei + i], cap, opts.budget,
                         progress.data(), i);
    });
    for (std::size_t i = 0; i < count; ++i) {
      SeedRun& r = runs[i];
      const int id = eligible[ei + i];
      processed += id - id_cursor + 1;  // skipped ids + this seed
      id_cursor = id + 1;
      for (std::size_t k = 0; k < r.cands.size(); ++k)
        if (r.emit_call[k] <= remaining) out.push_back(std::move(r.cands[k]));
      grow_calls += r.calls;
      input_rejects += r.input_rejects;
      output_rejects += r.output_rejects;
      convexity_rejects += r.convexity_rejects;
      if (r.time_stopped) {
        time_stopped = true;
        break;
      }
      remaining -= std::min(r.calls, remaining);
      if (remaining <= 0) {
        cap_stopped = true;
        break;
      }
    }
  }
  if (!cap_stopped && !time_stopped) {
    processed += n - id_cursor;  // trailing invalid/const seeds cost nothing
    id_cursor = n;
  }
  if (stats != nullptr) {
    stats->seeds_processed = processed;
    if (time_stopped) {
      stats->truncated = true;
      if (stats->seeds_processed > 0) --stats->seeds_processed;  // cut mid-seed
    }
  }
  ISEX_COUNT_ADD("ise.enum.candidates", out.size());
  ISEX_COUNT_ADD("ise.enum.grow_calls", grow_calls);
  ISEX_COUNT_ADD("ise.enum.input_rejects", input_rejects);
  ISEX_COUNT_ADD("ise.enum.output_rejects", output_rejects);
  ISEX_COUNT_ADD("ise.enum.convexity_rejects", convexity_rejects);
  if (cap_stopped) ISEX_COUNT("ise.enum.budget_exhausted");
  if (time_stopped) ISEX_COUNT("ise.enum.robust_budget_truncations");
  return out;
}

/// Body of enumerate_connected() with budget progress reported via `stats`.
std::vector<Candidate> enumerate_connected_impl(const ir::Dfg& dfg,
                                                const hw::CellLibrary& lib,
                                                const EnumOptions& opts,
                                                int block, double exec_freq,
                                                EnumStats* stats) {
  ISEX_SPAN_CAT("ise.enumerate_connected", "ise");
  // Blocks below this size enumerate in microseconds; a parallel wave costs
  // more than it saves. They still run concurrently with other blocks via
  // the block-level fan-out in the selection layer.
  constexpr int kMinParallelNodes = 64;
  if (parallel_allowed(opts.budget) && dfg.num_nodes() >= kMinParallelNodes &&
      opts.max_candidates > 0)
    return enumerate_connected_parallel(dfg, lib, opts, block, exec_freq,
                                        stats);
  return enumerate_connected_serial(dfg, lib, opts, block, exec_freq, stats);
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
