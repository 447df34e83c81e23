// Extension: untrusted-binary frontend throughput and work-counter bench.
//
// Two phases, both deterministic in everything except wall time:
//   * fixtures — lifts each hand-assembled ELF fixture in a tight loop
//     (parse + decode + CFG + DFG + certify cross-check per iteration) and
//     reports the per-phase work counters (instructions, blocks, nodes,
//     operations; these are pure functions of the fixture bytes and gate at
//     a tight drift band) plus lift throughput in instructions/second and
//     images/second;
//   * corpus — runs a seeded hostile corpus (random bytes, mutated fixture
//     images, truncated images) through lift_elf and reports the outcome
//     histogram (a pure function of the seed; internal errors gate at zero)
//     and structured-rejection throughput in inputs/second.
//
// Writes BENCH_lift.json (override with ISEX_BENCH_OUT) with a provenance
// block, so tools/bench_compare's `lift` mode can gate throughput and the
// deterministic counters in CI.
//
// Usage: ext_lift [--reps N] [--iters N] [--corpus N]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "isex/certify/dfg.hpp"
#include "isex/frontend/fixtures.hpp"
#include "isex/frontend/lift.hpp"
#include "isex/obs/provenance.hpp"
#include "isex/util/rng.hpp"
#include "isex/util/stopwatch.hpp"
#include "isex/util/table.hpp"

using namespace isex;

namespace {

struct FixtureRow {
  std::string name;
  frontend::LiftStats stats;
  std::size_t image_bytes = 0;
  double wall_seconds = 0;  // best-of-reps for `iters` lifts
  double insts_per_sec = 0;
  double lifts_per_sec = 0;
};

struct CorpusRow {
  long inputs = 0;
  long ok = 0;
  long rejected = 0;
  long internal = 0;  // must be zero: the gate bench_compare enforces
  double wall_seconds = 0;
  double inputs_per_sec = 0;
};

/// The seeded hostile corpus: identical across runs, so the ok/rejected
/// split is a deterministic work counter, not a statistic.
std::vector<std::vector<std::uint8_t>> build_corpus(long n) {
  util::Rng rng(0x11F7);
  const auto& fx = frontend::fixtures();
  std::vector<std::vector<std::uint8_t>> corpus;
  corpus.reserve(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    const auto& img =
        fx[static_cast<std::size_t>(rng.uniform_int(
               0, static_cast<int>(fx.size()) - 1))].elf;
    std::vector<std::uint8_t> bytes;
    switch (rng.uniform_int(0, 2)) {
      case 0: {  // random garbage
        bytes.resize(static_cast<std::size_t>(rng.uniform_int(0, 256)));
        for (auto& b : bytes)
          b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        break;
      }
      case 1: {  // mutated fixture image
        bytes = img;
        const int flips = rng.uniform_int(1, 6);
        for (int k = 0; k < flips; ++k)
          bytes[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(bytes.size()) - 1))] ^=
              static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
        break;
      }
      default: {  // truncated fixture image
        const auto keep = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(img.size())));
        bytes.assign(img.begin(),
                     img.begin() + static_cast<std::ptrdiff_t>(keep));
        break;
      }
    }
    corpus.push_back(std::move(bytes));
  }
  return corpus;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  int iters = 2000;       // lifts per timing sample, per fixture
  long corpus_n = 4000;   // hostile inputs
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--reps") reps = std::stoi(next());
    else if (a == "--iters") iters = std::stoi(next());
    else if (a == "--corpus") corpus_n = std::stol(next());
    else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }
  if (reps < 1 || iters < 1 || corpus_n < 1) {
    std::fprintf(stderr, "--reps, --iters and --corpus must be >= 1\n");
    return 2;
  }

  // --- phase 1: fixture lift throughput + work counters ---------------------
  std::vector<FixtureRow> rows;
  for (const auto& f : frontend::fixtures()) {
    FixtureRow row;
    row.name = f.name;
    row.image_bytes = f.elf.size();
    const frontend::LiftResult first =
        frontend::lift_elf(f.elf, f.name, frontend::LiftOptions{});
    if (!std::holds_alternative<frontend::Lifted>(first)) {
      std::fprintf(stderr, "error: fixture %s failed to lift: %s\n",
                   f.name.c_str(),
                   std::get<frontend::FrontendError>(first).render().c_str());
      return 1;
    }
    row.stats = std::get<frontend::Lifted>(first).stats;
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      util::Stopwatch sw;
      for (int it = 0; it < iters; ++it) {
        const frontend::LiftResult lr =
            frontend::lift_elf(f.elf, f.name, frontend::LiftOptions{});
        if (!std::holds_alternative<frontend::Lifted>(lr)) {
          std::fprintf(stderr, "error: fixture %s failed mid-loop\n",
                       f.name.c_str());
          return 1;
        }
      }
      best = std::min(best, sw.seconds());
    }
    row.wall_seconds = best;
    if (best > 0) {
      row.lifts_per_sec = iters / best;
      row.insts_per_sec = row.lifts_per_sec *
                          static_cast<double>(row.stats.decoded_instructions);
    }
    rows.push_back(std::move(row));
  }

  // --- phase 2: hostile-corpus rejection throughput --------------------------
  const auto corpus = build_corpus(corpus_n);
  CorpusRow cr;
  cr.inputs = corpus_n;
  double corpus_best = 1e300;
  for (int r = 0; r < reps; ++r) {
    long ok = 0, rejected = 0, internal = 0;
    util::Stopwatch sw;
    for (const auto& bytes : corpus) {
      const frontend::LiftResult lr =
          frontend::lift_elf(bytes, "corpus", frontend::LiftOptions{});
      if (std::holds_alternative<frontend::Lifted>(lr)) {
        ++ok;
      } else if (std::get<frontend::FrontendError>(lr).code ==
                 frontend::FrontendErrorCode::kInternal) {
        ++internal;
      } else {
        ++rejected;
      }
    }
    corpus_best = std::min(corpus_best, sw.seconds());
    cr.ok = ok;
    cr.rejected = rejected;
    cr.internal = internal;
  }
  cr.wall_seconds = corpus_best;
  cr.inputs_per_sec = corpus_best > 0 ? corpus_n / corpus_best : 0;

  util::Table t({"fixture", "bytes", "insts", "blocks", "nodes", "ops",
                 "lifts/s", "Minsts/s"});
  for (const auto& r : rows)
    t.row()
        .cell(r.name)
        .cell(static_cast<long>(r.image_bytes))
        .cell(r.stats.decoded_instructions)
        .cell(r.stats.blocks)
        .cell(r.stats.nodes)
        .cell(r.stats.operations)
        .cell(r.lifts_per_sec, 0)
        .cell(r.insts_per_sec / 1e6, 2);
  t.print();
  std::printf("\ncorpus: %ld inputs, %ld lifted, %ld rejected, %ld internal, "
              "%.0f inputs/s\n",
              cr.inputs, cr.ok, cr.rejected, cr.internal, cr.inputs_per_sec);

  const char* env = std::getenv("ISEX_BENCH_OUT");
  const std::string out_path = env && *env ? env : "BENCH_lift.json";
  util::JsonWriter w;
  obs::write_provenance_json(w.begin_object().key("provenance"),
                             obs::collect_provenance());
  w.key("reps").integer(reps).key("iters").integer(iters);
  w.key("fixtures").begin_array();
  for (const auto& r : rows) {
    w.begin_object().key("name").string(r.name);
    w.key("image_bytes").integer(r.image_bytes);
    w.key("instructions").integer(r.stats.decoded_instructions);
    w.key("illegal").integer(r.stats.illegal_instructions);
    w.key("blocks").integer(r.stats.blocks).key("nodes").integer(r.stats.nodes);
    w.key("operations").integer(r.stats.operations);
    w.key("wall_seconds").number(r.wall_seconds);
    w.key("lifts_per_sec").number(r.lifts_per_sec);
    w.key("insts_per_sec").number(r.insts_per_sec).end_object();
  }
  w.end_array().key("corpus").begin_object();
  w.key("inputs").integer(cr.inputs).key("ok").integer(cr.ok);
  w.key("rejected").integer(cr.rejected);
  w.key("internal_errors").integer(cr.internal);
  w.key("wall_seconds").number(cr.wall_seconds);
  w.key("inputs_per_sec").number(cr.inputs_per_sec).end_object();
  std::ofstream out(out_path);
  if (!(out << w.end_object().str() << '\n')) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return cr.internal == 0 ? 0 : 1;
}
