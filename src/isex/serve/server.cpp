#include "isex/serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <exception>
#include <utility>
#include <variant>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "isex/certify/schedule.hpp"
#include "isex/hw/cell_library.hpp"
#include "isex/obs/journal.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/obs/trace.hpp"
#include "isex/robust/fallback.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/supervise/pool.hpp"
#include "isex/util/file.hpp"
#include "isex/util/io.hpp"
#include "isex/workloads/tasks.hpp"
#include "isex/workloads/workloads.hpp"

namespace isex::serve {
namespace {

// ---- signal plumbing --------------------------------------------------------
//
// The handler does the minimum that is async-signal-safe: latch the signal
// number and flip the robust:: global-cancel atomic so budgeted solvers stop
// at their next charge stride. Everything else (drain, flush, exit code)
// happens in normal control flow.

// std::atomic<int> rather than volatile sig_atomic_t: the flag is also read
// from server threads (pending_signal), so it needs to be a real atomic to be
// data-race-free; it stays async-signal-safe because atomic<int> is lock-free.
std::atomic<int> g_pending_signal{0};

extern "C" void serve_signal_handler(int sig) {
  int expected = 0;
  if (!g_pending_signal.compare_exchange_strong(expected, sig,
                                                std::memory_order_relaxed)) {
    _exit(128 + sig);  // second signal: no more grace
  }
  robust::request_global_cancel();
}

// A TaskSet or the reason it could not be built.
struct BuiltTaskSet {
  rt::TaskSet ts;
  bool ok = false;
  std::string error;  // bad_request message when !ok
};

bool known_benchmark(const std::string& name) {
  const auto& names = workloads::benchmark_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Lifts an inline DFG into a configuration curve through the same
/// identification pipeline the benchmark tasks use, under the request budget
/// (enumeration truncates gracefully to fewer candidates).
rt::Task task_from_dfg(const TaskSpec& spec, robust::Budget* budget) {
  const hw::CellLibrary& lib = hw::CellLibrary::standard_018um();
  const auto cost =
      ir::Program::sum_cost([&lib](const ir::Node& n) { return lib.sw_cycles(n); });
  select::CurveOptions copts;
  copts.enum_opts.budget = budget;
  copts.enum_opts.max_candidates = 20000;  // inline DFGs are small (<= 256 ops)
  rt::Task t;
  t.name = spec.name;
  t.period = spec.period;
  t.configs =
      select::build_config_curve(spec.program, spec.program.wcet_counts(cost),
                                 lib, copts)
          .points;
  return t;
}

BuiltTaskSet build_taskset(const Request& req, robust::Budget* budget) {
  BuiltTaskSet out;
  if (!req.benchmarks.empty()) {
    for (const std::string& name : req.benchmarks) {
      if (!known_benchmark(name)) {
        out.error = "unknown benchmark '" + name + "' (see `isex list`)";
        return out;
      }
    }
    out.ts = workloads::make_taskset(req.benchmarks, req.u0);
  } else {
    for (const TaskSpec& spec : req.tasks) {
      if (spec.has_dfg) {
        out.ts.tasks.push_back(task_from_dfg(spec, budget));
      } else {
        out.ts.tasks.push_back(rt::Task{spec.name, spec.period, spec.configs});
      }
    }
  }
  if (std::string err = out.ts.validate(); !err.empty()) {
    out.error = "invalid task set: " + err;
    return out;
  }
  out.ts.sort_by_period();  // RMS requires it; EDF is order-insensitive
  out.ok = true;
  return out;
}

/// `{"count":N,"mean":..,"min":..,"max":..,"p50":..,"p95":..,"p99":..}` for
/// one latency histogram (microseconds). Percentiles come from the pow2
/// buckets via obs::histogram_quantile — bucket-resolution estimates, which
/// is what an operator dashboard needs.
void write_latency_stats(util::JsonWriter& w, const obs::Histogram& h) {
  obs::Registry::HistogramSnapshot s;
  s.count = h.count();
  s.sum = h.sum();
  s.min = s.count ? h.min() : 0;
  s.max = s.count ? h.max() : 0;
  s.buckets = h.buckets();
  const double mean =
      s.count ? static_cast<double>(s.sum) / static_cast<double>(s.count) : 0;
  w.begin_object().key("count").integer(s.count).key("mean").number(mean);
  w.key("min").integer(s.min).key("max").integer(s.max);
  w.key("p50").number(obs::histogram_quantile(s, 0.50));
  w.key("p95").number(obs::histogram_quantile(s, 0.95));
  w.key("p99").number(obs::histogram_quantile(s, 0.99)).end_object();
}

}  // namespace

void install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = serve_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads return EINTR promptly
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);
}

int pending_signal() {
  return g_pending_signal.load(std::memory_order_relaxed);
}

int consume_pending_signal() {
  return g_pending_signal.exchange(0, std::memory_order_relaxed);
}

Server::Server(const ServerOptions& opts) : opts_(opts), cache_(opts.cache) {}

// Out-of-line so the unique_ptr<WorkerPool> deleter sees the complete type;
// the pool's destructor SIGTERMs and reaps any workers still alive.
Server::~Server() = default;

std::vector<pid_t> Server::worker_pids() const {
  return pool_ ? pool_->pids() : std::vector<pid_t>{};
}

int Server::shed_rung_for_depth(int depth) const {
  if (depth > opts_.shed2_depth) return 2;
  if (depth > opts_.shed1_depth) return 1;
  return 0;
}

long Server::retry_after_ms() const {
  const double est = ewma_service_ms_ * static_cast<double>(admitted_ + 1);
  return std::max(1L, static_cast<long>(est));
}

std::string Server::extract_id(std::string_view line) const {
  // Best-effort correlation id for responses produced before full decoding
  // (admission rejects, drain). Bounded: never parses more than 64 KiB.
  if (line.size() > (std::size_t{64} << 10)) return "";
  JsonParseResult pr = json_parse(line, opts_.limits.json);
  if (!pr.ok() || pr.value.type() != Json::Type::kObject) return "";
  const Json* id = pr.value.find("id");
  if (id == nullptr || id->type() != Json::Type::kString) return "";
  std::string s = id->as_string();
  if (s.size() > opts_.limits.max_id_bytes) return "";
  return s;
}

std::string Server::render_stats(int queue_depth) const {
  util::JsonWriter w;
  w.begin_object().key("cmd").string("stats");
  w.key("queue_depth").integer(queue_depth);
  w.key("lines_in").integer(stats_.lines_in);
  w.key("accepted").integer(stats_.accepted);
  w.key("rejected_overload").integer(stats_.rejected_overload);
  w.key("rejected_too_large").integer(stats_.rejected_too_large);
  w.key("parse_errors").integer(stats_.parse_errors);
  w.key("bad_requests").integer(stats_.bad_requests);
  w.key("solved").integer(stats_.solved);
  w.key("shed_demotions").integer(stats_.shed_demotions);
  w.key("degraded").integer(stats_.degraded);
  w.key("internal_errors").integer(stats_.internal_errors);
  w.key("cache").begin_object().key("entries").integer(cache_.entries());
  w.key("bytes").integer(cache_.bytes());
  w.key("hits").integer(cache_.hits());
  w.key("misses").integer(cache_.misses());
  w.key("evictions").integer(cache_.evictions());
  w.key("poisoned").integer(cache_.poisoned()).end_object();
  // Worker-pool counters are always present (all zero with --workers 0) so
  // dashboards never branch on field existence.
  w.key("workers").begin_object().key("configured").integer(opts_.workers);
  w.key("live").integer(pool_ ? pool_->live_workers() : 0);
  w.key("dispatched").integer(stats_.dispatched);
  w.key("crashes").integer(stats_.worker_crashes);
  w.key("timeouts").integer(stats_.worker_timeouts);
  w.key("respawns").integer(stats_.worker_respawns);
  w.key("retried").integer(stats_.requests_retried);
  w.key("quarantined").integer(stats_.quarantined);
  w.key("quarantine_hits").integer(stats_.quarantine_hits);
  w.key("breaker_opens").integer(stats_.breaker_opens);
  w.key("breaker_rejected").integer(stats_.breaker_rejected).end_object();
  w.key("shed").begin_object().key("shed1_depth").integer(opts_.shed1_depth);
  w.key("shed2_depth").integer(opts_.shed2_depth);
  w.key("current_rung").integer(shed_rung_for_depth(queue_depth));
  w.end_object().key("latency_us").begin_object();
  const std::pair<const char*, const obs::Histogram*> lats[] = {
      {"total", &lat_total_},     {"exact", &lat_exact_},
      {"degraded", &lat_degraded_}, {"shed", &lat_shed_},
      {"cached", &lat_cached_},   {"error", &lat_error_}};
  for (const auto& [name, h] : lats) write_latency_stats(w.key(name), *h);
  return w.end_object().end_object().take();
}

std::string Server::render_introspect(int queue_depth) const {
  // The stats object plus everything else an operator may want mid-incident:
  // the full metrics registry (empty under ISEX_NO_OBS — introspect exposes
  // the observability subsystem itself, so this section legitimately
  // reflects what was compiled in), flight-recorder state, and the
  // effective options.
  util::JsonWriter w;
  w.begin_object().key("cmd").string("introspect");
  w.key("stats").raw(render_stats(queue_depth));
  const obs::Journal& j = obs::Journal::global();
  w.key("journal").begin_object().key("head").integer(j.head());
  w.key("capacity").integer(j.capacity());
  w.key("enabled").boolean(j.enabled());
  w.key("next_rid").integer(next_rid_).end_object();
  w.key("options").begin_object();
  w.key("queue_capacity").integer(opts_.queue_capacity);
  w.key("shed1_depth").integer(opts_.shed1_depth);
  w.key("shed2_depth").integer(opts_.shed2_depth);
  w.key("default_time_budget_seconds")
      .number(opts_.default_time_budget_seconds, 6);
  w.key("default_node_budget").integer(opts_.default_node_budget);
  w.key("default_mem_budget_bytes").integer(opts_.default_mem_budget_bytes);
  w.key("paranoid").boolean(opts_.paranoid);
  w.key("max_request_bytes").integer(opts_.limits.max_request_bytes);
  w.key("workers").integer(opts_.workers);
  w.key("chaos_probability").number(opts_.chaos_probability).end_object();
  write_worker_pool(w.key("worker_pool"));
  obs::Registry::global().write_json(w.key("metrics"));
  return w.end_object().take();
}

void Server::write_worker_pool(util::JsonWriter& w) const {
  if (pool_)
    pool_->write_json(w, obs::clock_ns());
  else
    w.null();
}

std::string Server::handle_select(const Request& req, int queue_depth,
                                  std::uint64_t rid) {
  const std::int64_t t0 = obs::clock_ns();

  // Effective per-request budget: request values (already clamped to the
  // schema caps by decode_request) or the server defaults.
  const double time_budget = req.time_budget_seconds > 0
                                 ? req.time_budget_seconds
                                 : opts_.default_time_budget_seconds;
  const long node_budget =
      req.node_budget >= 0 ? req.node_budget : opts_.default_node_budget;
  const std::size_t mem_budget = req.mem_budget_bytes > 0
                                     ? req.mem_budget_bytes
                                     : opts_.default_mem_budget_bytes;
  robust::Budget budget;
  if (node_budget >= 0) budget.set_node_budget(node_budget);
  if (mem_budget > 0) budget.set_mem_budget(mem_budget);
  if (time_budget > 0) budget.set_time_budget(time_budget);

  const std::int64_t build_t0 = obs::clock_ns();
  BuiltTaskSet built = build_taskset(req, &budget);
  ISEX_JOURNAL(kSolve, kBuild, obs::clock_ns() - build_t0,
               built.ts.tasks.size(), built.ok ? 0 : 1);
  if (!built.ok) {
    meta_.error_kind = static_cast<std::uint8_t>(ErrorCode::kBadRequest) + 1;
    return render_error(req.id, ErrorCode::kBadRequest, built.error, -1, rid);
  }
  const rt::TaskSet& ts = built.ts;

  const double area_budget = req.has_area_budget
                                 ? req.area_budget
                                 : req.budget_fraction * ts.max_area();

  // Load shedding: deep queue -> start the ladder below the exact rung.
  const int shed_rung = shed_rung_for_depth(queue_depth);
  if (shed_rung > 0) {
    ++stats_.shed_demotions;
    ISEX_COUNT("serve.shed_demotions");
    ISEX_JOURNAL(kShed, kSolve, 0, shed_rung, queue_depth);
  }

  const bool paranoid = opts_.paranoid || req.paranoid;
  const std::uint64_t key =
      select_cache_key(ts, area_budget, req.policy, time_budget, node_budget,
                       mem_budget, paranoid, shed_rung);

  // Certified reuse: a hit is served only if its stored selection still
  // passes the independent witness checkers against the task set we just
  // built. A failing entry is poisoned out and the request solved cold.
  if (const ResultCache::Entry* e = cache_.find(key)) {
    const certify::CertifyReport check =
        e->rms ? certify::check_selection_rms(ts, area_budget, e->selection)
               : certify::check_selection_edf(
                     ts, area_budget,
                     static_cast<const customize::SelectionResult&>(
                         e->selection));
    robust::journal_certify(check.checks,
                            static_cast<long>(check.violations.size()));
    if (check.ok()) {
      ++stats_.cache_hits;
      ISEX_JOURNAL(kCacheLookup, kCache, 0, 1, 0);
      meta_.disposition = obs::Disposition::kCached;
      meta_.result_json = e->result_json;
      meta_.nodes_charged = e->nodes_charged;
      const double ms =
          static_cast<double>(obs::clock_ns() - t0) / 1e6;
      return render_success(req.id, e->result_json, /*cache_hit=*/true,
                            queue_depth, ms, e->nodes_charged, rid);
    }
    ++stats_.cache_poisoned;
    ISEX_JOURNAL(kCacheLookup, kCache, 0, 2, 0);
    cache_.erase(key);
  } else {
    ISEX_JOURNAL(kCacheLookup, kCache, 0, 0, 0);
  }

  robust::FallbackOptions fb;
  fb.start_rung = static_cast<std::size_t>(shed_rung);
  if (paranoid) fb.certify_pool_cap = -1;

  ResultCache::Entry entry;
  std::string result;
  robust::Status status = robust::Status::kExact;
  const std::int64_t solve_t0 = obs::clock_ns();
  if (req.policy == rt::Policy::kRms) {
    customize::RmsOptions ropts;
    robust::Outcome<customize::RmsResult> out =
        robust::select_rms_with_fallback(ts, area_budget, ropts, &budget, fb);
    result = render_select_result(
        ts, area_budget, req.policy,
        robust::Outcome<customize::SelectionResult>{
            out.value, out.status, out.optimality_gap, out.budget, out.detail,
            out.certificate},
        shed_rung);
    entry.selection = out.value;
    entry.rms = true;
    status = out.status;
    if (out.status != robust::Status::kExact) ++stats_.degraded;
    if (!out.certificate.ok()) {
      meta_.error_kind = static_cast<std::uint8_t>(ErrorCode::kInternal) + 1;
      return render_error(req.id, ErrorCode::kInternal,
                          "certificate failed: " + out.certificate.summary(),
                          -1, rid);
    }
  } else {
    customize::EdfOptions eopts;
    robust::Outcome<customize::SelectionResult> out =
        robust::select_edf_with_fallback(ts, area_budget, eopts, &budget, fb);
    result = render_select_result(ts, area_budget, req.policy, out, shed_rung);
    static_cast<customize::SelectionResult&>(entry.selection) = out.value;
    entry.rms = false;
    status = out.status;
    if (out.status != robust::Status::kExact) ++stats_.degraded;
    if (!out.certificate.ok()) {
      meta_.error_kind = static_cast<std::uint8_t>(ErrorCode::kInternal) + 1;
      return render_error(req.id, ErrorCode::kInternal,
                          "certificate failed: " + out.certificate.summary(),
                          -1, rid);
    }
  }
  ++stats_.solved;
  ISEX_COUNT("serve.requests.solved");

  const robust::BudgetReport rep = budget.report();
  ISEX_JOURNAL(kSolve, kSolve, obs::clock_ns() - solve_t0, rep.nodes_charged,
               static_cast<int>(status));
  meta_.disposition = shed_rung > 0 ? obs::Disposition::kShed
                      : status != robust::Status::kExact
                          ? obs::Disposition::kDegraded
                          : obs::Disposition::kExact;
  entry.result_json = result;
  entry.nodes_charged = rep.nodes_charged;
  cache_.insert(key, std::move(entry));
  meta_.result_json = result;
  meta_.nodes_charged = rep.nodes_charged;
  meta_.degraded = status != robust::Status::kExact;
  meta_.shed = shed_rung > 0;

  const double ms = static_cast<double>(obs::clock_ns() - t0) / 1e6;
  ewma_service_ms_ = 0.8 * ewma_service_ms_ + 0.2 * ms;
  return render_success(req.id, result, /*cache_hit=*/false, queue_depth, ms,
                        rep.nodes_charged, rid);
}

std::string Server::handle_request(const Request& req, int queue_depth,
                                   std::uint64_t rid) {
  switch (req.cmd) {
    case Cmd::kPing:
      meta_.is_admin = true;
      return render_success(req.id, "{\"cmd\":\"ping\"}", false, queue_depth,
                            0.0, 0, rid);
    case Cmd::kStats:
      meta_.is_admin = true;
      return render_success(req.id, render_stats(queue_depth), false,
                            queue_depth, 0.0, 0, rid);
    case Cmd::kIntrospect:
      meta_.is_admin = true;
      return render_success(req.id, render_introspect(queue_depth), false,
                            queue_depth, 0.0, 0, rid);
    case Cmd::kSelect:
      return handle_select(req, queue_depth, rid);
  }
  return render_error(req.id, ErrorCode::kInternal, "unreachable cmd", -1,
                      rid);
}

void Server::note_response(obs::Disposition d, bool timed,
                           std::int64_t dur_ns, std::size_t response_bytes) {
  ISEX_JOURNAL(kResponse, kRender, dur_ns, static_cast<std::int64_t>(d),
               response_bytes);
  if (!timed) return;
  const std::int64_t us = dur_ns / 1000;
  lat_total_.record(us);
  switch (d) {
    case obs::Disposition::kExact: lat_exact_.record(us); break;
    case obs::Disposition::kDegraded: lat_degraded_.record(us); break;
    case obs::Disposition::kShed: lat_shed_.record(us); break;
    case obs::Disposition::kCached: lat_cached_.record(us); break;
    case obs::Disposition::kError:
    case obs::Disposition::kDrained: lat_error_.record(us); break;
  }
}

std::string Server::handle_line(std::string_view line, int queue_depth,
                                std::uint64_t caller_rid) {
  ISEX_SPAN("serve.request");
  // rid 0 allocates locally; a nonzero caller rid (the supervisor's, carried
  // over the dispatch frame) keeps flight-recorder correlation consistent
  // across the process boundary.
  const std::uint64_t rid = caller_rid != 0 ? caller_rid : ++next_rid_;
  if (caller_rid != 0 && caller_rid > next_rid_) next_rid_ = caller_rid;
  ISEX_JOURNAL_SCOPE(rid);
  ISEX_JOURNAL(kRequest, kTransport, 0, line.size(), queue_depth);
  const std::int64_t t0 = obs::clock_ns();
  meta_ = ResponseMeta{};
  std::string response;
  // Request isolation: nothing a single request does — hostile bytes, a
  // throwing solver path, a defect — may unwind past this frame.
  try {
    const std::int64_t decode_t0 = obs::clock_ns();
    DecodeResult dr = decode_request(line, opts_.limits);
    if (const auto* err = std::get_if<DecodeError>(&dr)) {
      ISEX_JOURNAL(kDecode, kDecode, obs::clock_ns() - decode_t0,
                   static_cast<int>(err->code) + 1, 0);
      if (err->code == ErrorCode::kParseError)
        ++stats_.parse_errors;
      else
        ++stats_.bad_requests;
      meta_.error_kind = static_cast<std::uint8_t>(err->code) + 1;
      response = render_error(err->id, err->code, err->message, -1, rid);
    } else {
      ISEX_JOURNAL(kDecode, kDecode, obs::clock_ns() - decode_t0, 0, 0);
      response = handle_request(std::get<Request>(dr), queue_depth, rid);
    }
  } catch (const std::exception& e) {
    ++stats_.internal_errors;
    ISEX_COUNT("serve.requests.internal_errors");
    meta_ = ResponseMeta{};
    meta_.error_kind = static_cast<std::uint8_t>(ErrorCode::kInternal) + 1;
    response = render_error(extract_id(line), ErrorCode::kInternal, e.what(),
                            -1, rid);
  } catch (...) {
    ++stats_.internal_errors;
    ISEX_COUNT("serve.requests.internal_errors");
    meta_ = ResponseMeta{};
    meta_.error_kind = static_cast<std::uint8_t>(ErrorCode::kInternal) + 1;
    response = render_error(extract_id(line), ErrorCode::kInternal,
                            "unknown exception", -1, rid);
  }
  // Admin requests would skew the latency axes.
  note_response(meta_.disposition, !meta_.is_admin, obs::clock_ns() - t0,
                response.size());
  return response;
}

void Server::ingest_line(std::string line) {
  if (line.empty()) return;  // blank keep-alives are free
  ++stats_.lines_in;
  ISEX_COUNT("serve.lines_in");
  if (discarding_) return;  // handled in split_lines
  if (admitted_ >= opts_.queue_capacity) {
    // Admission control: reject now, but queue the rejection so the
    // response order still matches the request order.
    ++stats_.rejected_overload;
    ISEX_COUNT("serve.rejected.overload");
    const std::uint64_t rid = ++next_rid_;
    ISEX_JOURNAL_SCOPE(rid);
    const long retry = retry_after_ms();
    ISEX_JOURNAL(kAdmission, kTransport, 0, retry, admitted_);
    std::string resp = render_error(extract_id(line), ErrorCode::kOverload,
                                    "queue full (" +
                                        std::to_string(opts_.queue_capacity) +
                                        " requests pending)",
                                    retry, rid);
    ISEX_JOURNAL(kResponse, kRender, 0,
                 static_cast<std::int64_t>(obs::Disposition::kError),
                 resp.size());
    InflightEntry& tombstone = inflight_.emplace_back();
    tombstone.done = true;
    tombstone.text = std::move(resp);
    tombstone.rid = rid;
    return;
  }
  ++stats_.accepted;
  ++admitted_;
  InflightEntry& ent = inflight_.emplace_back();
  ent.text = std::move(line);
  ent.rid = ++next_rid_;
}

void Server::split_lines() {
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = inbuf_.find('\n', start);
    if (nl == std::string::npos) break;
    if (discarding_) {
      // The newline ends the oversized line whose body we dropped.
      discarding_ = false;
      ++stats_.rejected_too_large;
      ISEX_COUNT("serve.rejected.too_large");
      const std::uint64_t rid = ++next_rid_;
      ISEX_JOURNAL_SCOPE(rid);
      std::string resp =
          render_error("", ErrorCode::kTooLarge,
                       "request line exceeds " +
                           std::to_string(opts_.limits.max_request_bytes) +
                           " bytes",
                       -1, rid);
      ISEX_JOURNAL(kResponse, kRender, 0,
                   static_cast<std::int64_t>(obs::Disposition::kError),
                   resp.size());
      InflightEntry& tombstone = inflight_.emplace_back();
      tombstone.done = true;
      tombstone.text = std::move(resp);
      tombstone.rid = rid;
    } else {
      std::string line = inbuf_.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      ingest_line(std::move(line));
    }
    start = nl + 1;
  }
  inbuf_.erase(0, start);
  if (!discarding_ && inbuf_.size() > opts_.limits.max_request_bytes) {
    // A line longer than the cap: drop its bytes as they stream in (memory
    // stays bounded) and emit one too_large response at the newline.
    discarding_ = true;
    inbuf_.clear();
  } else if (discarding_) {
    inbuf_.clear();
  }
}

std::size_t Server::window_cap() const {
  return static_cast<std::size_t>(opts_.queue_capacity) * 4 + 16;
}

void Server::pump_input() {
  // Stop reading when the window is saturated well past capacity: from
  // here on the kernel pipe fills up and blocks the sender — bounded memory
  // is the outermost overload defense.
  char buf[1 << 16];
  while (!eof_ && inflight_.size() < window_cap()) {
    const ssize_t n = ::read(in_fd_, buf, sizeof buf);
    if (n > 0) {
      inbuf_.append(buf, static_cast<std::size_t>(n));
      split_lines();
      continue;
    }
    if (n == 0) {
      eof_ = true;
      if (!inbuf_.empty() && !discarding_) {
        // Final unterminated line: treat EOF as the delimiter.
        std::string line = std::move(inbuf_);
        inbuf_.clear();
        ingest_line(std::move(line));
      }
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) break;  // outer loop checks pending_signal()
    eof_ = true;  // unrecoverable read error: drain what we have
    break;
  }
}

bool Server::write_line(int out_fd, std::string_view line) {
  std::string framed(line);
  framed += '\n';
  // util::write_all_fd retries EINTR and short writes, and uses
  // send(MSG_NOSIGNAL) on sockets so a half-closed client yields EPIPE here
  // instead of SIGPIPE killing a process that never installed SIG_IGN.
  if (!util::write_all_fd(out_fd, framed.data(), framed.size())) {
    write_failed_ = true;  // client vanished (EPIPE) or transport broke
    return false;
  }
  return true;
}

void Server::maybe_flush_stats() {
  if (opts_.stats_path.empty() || opts_.stats_interval_seconds <= 0) return;
  const std::int64_t now = obs::clock_ns();
  const auto interval_ns =
      static_cast<std::int64_t>(opts_.stats_interval_seconds * 1e9);
  if (last_flush_ns_ != 0 && now - last_flush_ns_ < interval_ns) return;
  last_flush_ns_ = now;
  const std::string snapshot = render_introspect(admitted_);
  util::write_file_atomic(opts_.stats_path, [&](std::ostream& out) {
    out << snapshot << "\n";
  });
}

void Server::complete(InflightEntry& ent, std::string response) {
  ent.done = true;
  ent.text = std::move(response);
  --admitted_;
}

void Server::finish(InflightEntry& ent, std::string response,
                    obs::Disposition d, bool is_admin) {
  // For responses made outside handle_line, which records its own. Latency
  // counts from classification (pool mode); an entry never classified was
  // never timed and stays out of the histograms.
  ISEX_JOURNAL_SCOPE(ent.rid);
  const bool timed = !is_admin && ent.t0_ns != 0;
  note_response(d, timed, timed ? obs::clock_ns() - ent.t0_ns : 0,
                response.size());
  complete(ent, std::move(response));
}

void Server::finish_drained(InflightEntry& ent) {
  // Graceful drain: a request that will not be solved gets a deterministic
  // "shutting_down" answer in its slot.
  ++stats_.drained;
  ISEX_COUNT("serve.drained");
  ISEX_JOURNAL_SCOPE(ent.rid);
  ISEX_JOURNAL(kDrain, kTransport, 0, 0, admitted_);
  finish(ent,
         render_error(ent.id.empty() ? extract_id(ent.text) : ent.id,
                      ErrorCode::kShuttingDown, "server draining", -1,
                      ent.rid),
         obs::Disposition::kDrained, false);
}

void Server::solve_oldest() {
  // Inline dispatch: one solve per pass, so admission sees new arrivals
  // between solves.
  for (InflightEntry& ent : inflight_) {
    if (ent.done) continue;
    // Depth observed *behind* this request drives the shedding decision.
    complete(ent, handle_line(ent.text, admitted_ - 1, ent.rid));
    return;
  }
}

void Server::flush_done_prefix(bool reading) {
  while (!inflight_.empty() && inflight_.front().done) {
    if (!write_line(out_fd_, inflight_.front().text)) return;
    inflight_.pop_front();
    // A run of finished responses (an overload burst's tombstones) frees
    // window room as it drains: keep reading while it does, so backpressure
    // lifts as soon as there is space and the read is not charged to the
    // next solve.
    if (reading && !inflight_.empty() && inflight_.front().done) pump_input();
  }
}

void Server::wait_for_work(bool draining, std::int64_t drain_deadline_ns) {
  // Inline work is queued: the next pump reads whatever arrived meanwhile.
  if (!pool_ && admitted_ > 0) return;
  pfds_.clear();
  if (!draining && !eof_ && inflight_.size() < window_cap())
    pfds_.push_back({in_fd_, POLLIN, 0});
  std::int64_t deadline_ns = drain_deadline_ns;
  if (pool_) {
    for (const auto& r : pool_->poll_fds()) pfds_.push_back({r.fd, POLLIN, 0});
    const std::int64_t dl = pool_->next_deadline_ns();
    if (dl != 0 && (deadline_ns == 0 || dl < deadline_ns)) deadline_ns = dl;
  }
  // A short timeout so signals are noticed promptly.
  int timeout_ms = 200;
  if (deadline_ns != 0)
    timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
        (deadline_ns - obs::clock_ns()) / 1'000'000 + 1, 1, 200));
  ::poll(pfds_.data(), static_cast<nfds_t>(pfds_.size()), timeout_ms);
}

int Server::run(int in_fd, int out_fd) {
  in_fd_ = in_fd;
  out_fd_ = out_fd;
  inbuf_.clear();
  inflight_.clear();
  discarding_ = false;
  eof_ = false;
  write_failed_ = false;
  admitted_ = 0;
  if (opts_.workers > 0 && !pool_ && !start_pool()) return 2;

  // Non-blocking reads let the loop interleave pumping (admission) with
  // dispatch; wait_for_work supplies the blocking when there is nothing to
  // do.
  const int fl = ::fcntl(in_fd_, F_GETFL);
  if (fl >= 0) ::fcntl(in_fd_, F_SETFL, fl | O_NONBLOCK);

  bool draining = false;
  std::int64_t drain_deadline_ns = 0;
  for (;;) {
    if (!draining && pending_signal() != 0) {
      draining = true;
      drain_deadline_ns =
          obs::clock_ns() +
          static_cast<std::int64_t>(opts_.drain_timeout_seconds * 1e9);
      if (pool_) pool_->begin_drain();
    }
    if (!draining) pump_input();

    if (draining) {
      // Everything not yet on a worker gets a deterministic drain answer.
      for (InflightEntry& ent : inflight_)
        if (!ent.done && ent.worker < 0) finish_drained(ent);
    } else if (pool_) {
      dispatch_to_pool();
    } else {
      solve_oldest();
    }

    // Flush before blocking: an answer must never wait for the poll below.
    flush_done_prefix(!draining);
    ISEX_GAUGE_SET("serve.queue.depth", admitted_);
    maybe_flush_stats();
    if (write_failed_ || (inflight_.empty() && (eof_ || draining))) break;

    wait_for_work(draining, drain_deadline_ns);
    if (pool_) {
      collect_from_pool(draining);
      if (draining && obs::clock_ns() >= drain_deadline_ns) {
        // Patience exhausted: kill the stragglers, answer their requests.
        pool_->shutdown(0);
        for (InflightEntry& ent : inflight_)
          if (!ent.done) finish_drained(ent);
      }
    }
  }
  if (fl >= 0) ::fcntl(in_fd_, F_SETFL, fl);
  return write_failed_ ? 2 : 0;
}

int run_unix_socket(Server& server, const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) return 2;
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (lfd < 0) return 2;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(lfd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(lfd, 16) < 0) {
    ::close(lfd);
    return 2;
  }
  while (pending_signal() == 0) {
    struct pollfd pfd{lfd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (pr <= 0) continue;  // timeout or EINTR: re-check the signal flag
    const int conn = util::accept_retry(lfd);
    if (conn < 0) continue;
    server.run(conn, conn);  // serves until client EOF or signal
    ::close(conn);
  }
  ::close(lfd);
  ::unlink(path.c_str());
  return 0;
}

}  // namespace isex::serve
