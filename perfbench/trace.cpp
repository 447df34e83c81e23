// perfbench_trace — one pass of the benchmark's in-process replay.
//
// Runs every workload's inputs once, in this process, through the entry
// points the `isex` binary itself uses:
//
//   identify  cli::run({"curve", k, "--csv"}) and cli::run({"lift", elf}),
//             stdout captured per op
//   solve     one serve::Server with the cache off (as `isex serve
//             --cache-entries 0`), one handle_line per request
//   serve     a fresh serve::Server with the default cache, the warm-up
//             lines, then one handle_line per stream line
//
// Each op sits in an obs::Span named "op". With --traced 1 the shared
// obs::TraceBuffer records it together with the library's own spans
// (workloads.build_task.*, select.*, ise.*, serve.request, robust.fallback.*,
// customize.*), and each workload's buffer is written as Chrome-trace JSON
// to <trace-prefix>-<workload>.json. Untimed probes after an op wrap the
// public calls the library does not trace itself in benchmark-side spans:
// frontend::lift_elf and certify::check_candidate_pool (lift ops),
// certify::check_selection_edf/rms on the answer the server returned (solve
// ops) and serve::decode_request (serve lines). Registry counter deltas are
// taken around every op.
//
// stdout: {"threads":T,"traced":0|1,"ops":[{"workload","name","ns","rc",
// "out","disposition","insts","counters":{...}}, ...]}; perfbench/run.py
// does the aggregation.
//
// workloads::cached_task memoizes curves for the life of the process, so a
// process runs exactly one pass; run.py starts one process per pass.
//
//   perfbench_trace --work DIR --threads T --traced 0|1 [--trace-prefix P]
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "isex/certify/ci.hpp"
#include "isex/certify/schedule.hpp"
#include "isex/cli/driver.hpp"
#include "isex/frontend/lift.hpp"
#include "isex/hw/cell_library.hpp"
#include "isex/ise/enumerate.hpp"
#include "isex/obs/journal.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/obs/trace.hpp"
#include "isex/robust/budget.hpp"
#include "isex/rt/task.hpp"
#include "isex/serve/json.hpp"
#include "isex/serve/protocol.hpp"
#include "isex/serve/server.hpp"
#include "isex/util/file.hpp"
#include "isex/util/task_pool.hpp"

using namespace isex;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> out;
  for (std::string l; std::getline(in, l);)
    if (!l.empty()) out.push_back(l);
  return out;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

struct Op {
  std::string workload, name;
  std::int64_t ns = 0;
  int rc = 0;
  std::string out, disposition;
  long insts = -1;  // lift ops: instructions the lift probe decoded
  std::map<std::string, std::uint64_t> counters;  // nonzero deltas
};

class Replay {
 public:
  Replay(std::string work, bool traced) : work_(std::move(work)), traced_(traced) {}

  /// Times `body` as one op. The registry is read before and after, outside
  /// the timed span.
  Op& run_op(const std::string& workload, const std::string& name,
             const std::function<std::string(Op&)>& body) {
    Op& op = ops_.emplace_back();
    op.workload = workload;
    op.name = name;
    obs::Registry::Snapshot before;
    if (traced_) before = obs::Registry::global().snapshot();
    const std::int64_t t0 = now_ns();
    {
      obs::Span s("op", "perfbench");
      s.arg("op", workload + ":" + name);
      op.out = body(op);
    }
    op.ns = now_ns() - t0;
    if (traced_) {
      const auto after = obs::Registry::global().snapshot();
      for (const auto& [k, v] : after.counters) {
        const auto it = before.counters.find(k);
        const std::uint64_t d = v - (it == before.counters.end() ? 0 : it->second);
        if (d != 0) op.counters[k] = d;
      }
    }
    return op;
  }

  /// Runs the CLI in-process with its stdout sent to a file; returns what
  /// it printed.
  std::string cli(const std::vector<std::string>& args, int& rc) {
    const std::string path = work_ + "/replay_stdout.txt";
    std::cout.flush();
    std::fflush(stdout);
    const int saved = dup(1);
    const int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (saved < 0 || fd < 0) throw std::runtime_error("cannot redirect stdout");
    dup2(fd, 1);
    close(fd);
    rc = cli::run(args);
    std::cout.flush();
    std::fflush(stdout);
    dup2(saved, 1);
    close(saved);
    return read_all(path);
  }

  void finish_workload(const std::string& name, const std::string& prefix) {
    if (!traced_ || prefix.empty()) return;
    std::ofstream out(prefix + "-" + name + ".json");
    if (!out) throw std::runtime_error("cannot write trace for " + name);
    obs::TraceBuffer::global().write_chrome_json(out);
    obs::TraceBuffer::global().clear();
  }

  void print(int threads) const {
    std::string s = "{\"threads\":" + std::to_string(threads) +
                    ",\"traced\":" + (traced_ ? "1" : "0") + ",\"ops\":[";
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      if (i) s += ",\n";
      s += "{\"workload\":" + serve::json_quote(op.workload) +
           ",\"name\":" + serve::json_quote(op.name) +
           ",\"ns\":" + std::to_string(op.ns) +
           ",\"rc\":" + std::to_string(op.rc) +
           ",\"out\":" + serve::json_quote(op.out) +
           ",\"disposition\":" + serve::json_quote(op.disposition) +
           ",\"insts\":" + std::to_string(op.insts) +
           ",\"counters\":{";
      bool first = true;
      for (const auto& [k, v] : op.counters) {
        if (!first) s += ',';
        s += serve::json_quote(k);
        s += ':';
        s += std::to_string(v);
        first = false;
      }
      s += "}}";
    }
    s += "]}\n";
    std::fwrite(s.data(), 1, s.size(), stdout);
  }

 private:
  std::string work_;
  bool traced_;
  std::deque<Op> ops_;  // stable references across run_op calls
};

// --- probes: untimed by the op, each in its own benchmark-side span --------

/// lift_elf on the file, then check_candidate_pool over every lifted block's
/// enumerate_candidates pool (default options). Returns the decoded
/// instruction count.
long probe_lift(const std::string& path) {
  const frontend::LiftOptions lo;
  const util::FileReadResult file =
      util::read_file_bounded(path, lo.limits.max_file_bytes);
  if (!file.ok) throw std::runtime_error(file.error);
  frontend::LiftResult lr = frontend::FrontendError{};
  {
    obs::Span s("frontend.lift_elf", "perfbench");
    lr = frontend::lift_elf(file.data, path, lo);
  }
  const auto* lifted = std::get_if<frontend::Lifted>(&lr);
  if (lifted == nullptr) throw std::runtime_error("lift failed: " + path);
  const auto& lib = hw::CellLibrary::standard_018um();
  const ise::EnumOptions eo;
  for (int b = 0; b < lifted->program.num_blocks(); ++b) {
    const ir::Dfg& dfg = lifted->program.block(b).dfg;
    const auto pool = ise::enumerate_candidates(dfg, lib, eo, b, 1);
    obs::Span s("certify.check_candidate_pool", "perfbench");
    if (!certify::check_candidate_pool(dfg, lib, eo.constraints, pool).ok())
      throw std::runtime_error("candidate pool certificate failed: " + path);
  }
  return lifted->stats.decoded_instructions;
}

/// Re-certifies the selection a solve response returned, against the task
/// set of its request: check_selection_edf/rms.
void probe_selection(const std::string& request, const std::string& response) {
  const auto dr = serve::decode_request(request, serve::RequestLimits{});
  const auto* req = std::get_if<serve::Request>(&dr);
  const auto parsed = serve::json_parse(response);
  const serve::Json* result = parsed.ok() ? parsed.value.find("result") : nullptr;
  if (req == nullptr || result == nullptr)
    throw std::runtime_error("solve response without a result: " + response);
  const auto num = [&](const char* k) { return result->find(k)->as_number(); };
  rt::TaskSet ts;
  customize::SelectionResult r;
  for (const serve::Json& t : result->find("tasks")->items()) {
    const std::string& name = t.find("name")->as_string();
    for (const serve::TaskSpec& spec : req->tasks)
      if (spec.name == name) {
        ts.tasks.push_back(rt::Task{name, t.find("period")->as_number(), spec.configs});
        break;
      }
    r.assignment.push_back(static_cast<int>(t.find("config")->as_number()));
  }
  r.utilization = num("utilization");
  r.area_used = num("area_used");
  r.optimality_gap = num("gap");
  r.schedulable = result->find("schedulable")->as_bool();
  const bool exact =
      result->find("status")->as_string() == robust::to_string(robust::Status::kExact);
  r.status = exact ? robust::Status::kExact : robust::Status::kBudgetTruncated;
  const double budget = num("area_budget");
  certify::CertifyReport rep;
  {
    obs::Span s("certify.check_selection", "perfbench");
    rep = req->policy == rt::Policy::kRms
              ? certify::check_selection_rms(ts, budget, r, exact)
              : certify::check_selection_edf(ts, budget, r);
  }
  if (!rep.ok())
    throw std::runtime_error("selection certificate failed: " + rep.summary());
}

}  // namespace

int main(int argc, char** argv) {
  std::string work, prefix;
  int threads = 1;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i], v = argv[i + 1];
    if (a == "--work") work = v;
    else if (a == "--threads") threads = std::stoi(v);
    else if (a == "--traced") traced = v == "1";
    else if (a == "--trace-prefix") prefix = v;
    else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (work.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_trace --work DIR [--threads T] "
                 "[--traced 0|1] [--trace-prefix P]\n");
    return 2;
  }
  util::set_max_threads(threads);
  obs::TraceBuffer::global().set_enabled(traced);

  try {
    Replay rp(work, traced);

    for (const std::string& l : read_lines(work + "/identify.txt")) {
      const std::string kind = l.substr(0, l.find(' '));
      const std::string arg = l.substr(l.find(' ') + 1);
      const std::vector<std::string> args =
          kind == "curve" ? std::vector<std::string>{"curve", arg, "--csv"}
                          : std::vector<std::string>{"lift", arg};
      Op& op = rp.run_op("identify", kind + ":" + arg,
                         [&](Op& o) { return rp.cli(args, o.rc); });
      if (kind == "lift") op.insts = probe_lift(arg);
    }
    rp.finish_workload("identify", prefix);

    serve::ServerOptions solve_opts;
    solve_opts.cache.max_entries = 0;
    serve::Server solver(solve_opts);
    const auto solve = read_lines(work + "/solve.jsonl");
    for (std::size_t i = 0; i < solve.size(); ++i) {
      const Op& op = rp.run_op("solve", std::to_string(i),
                               [&](Op&) { return solver.handle_line(solve[i]); });
      probe_selection(solve[i], op.out);
    }
    rp.finish_workload("solve", prefix);

    serve::Server server{serve::ServerOptions{}};
    for (const auto& w : read_lines(work + "/serve_warmup.jsonl")) server.handle_line(w);
    obs::TraceBuffer::global().clear();  // warm-up is set-up, not an op
    const auto stream = read_lines(work + "/serve.jsonl");
    const serve::RequestLimits limits = server.options().limits;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      {
        obs::Span s("serve.decode_request", "perfbench");
        (void)serve::decode_request(stream[i], limits);
      }
      rp.run_op("serve", std::to_string(i), [&](Op& op) {
        std::string resp = server.handle_line(stream[i]);
        op.disposition = obs::to_string(server.last_meta().disposition);
        return resp;
      });
    }
    rp.finish_workload("serve", prefix);
    rp.print(threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
  return 0;
}
