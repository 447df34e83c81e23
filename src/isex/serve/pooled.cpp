// Pool-mode dispatch of `isex serve --workers N`: the steps Server::run
// takes in place of the inline solve when a worker pool exists.
//
// The supervisor keeps the listener, admission control, result cache,
// journal and response ordering; every select is dispatched over a
// length-prefixed socketpair frame to a pre-forked worker that runs the
// full decode -> solve_with_fallback -> certify pipeline under per-process
// rlimits. The supervisor itself never parses a hostile payload beyond the
// bounded cmd/id/time_budget classification, so no request can take the
// listener down.
//
// Failure matrix handled here (process mechanics live in supervise::
// WorkerPool; the table is documented in DESIGN.md):
//  * worker crash      -> retry the request on another worker (solves are
//                         pure, so at-most-once-per-worker re-execution is
//                         safe); after poison_kill_threshold kills the
//                         content hash is quarantined and the request gets
//                         a structured `worker_crashed` error carrying the
//                         terminating signal and the worker's crash-dump
//                         path.
//  * hung solve        -> per-request watchdog (budget + grace) SIGKILLs
//                         the worker; the request gets `worker_timeout`
//                         (no retry: a retry would just burn another
//                         deadline; the kill still counts toward poison
//                         quarantine).
//  * restart storm     -> the pool's circuit breaker stops respawns; while
//                         it is open and no worker is live, queued selects
//                         fail fast with `worker_unavailable`.
//  * graceful drain    -> SIGTERM forwards cancellation to workers (they
//                         truncate the in-flight solve, answer, and exit);
//                         responses are collected for drain_timeout_seconds
//                         before stragglers are SIGKILLed and their
//                         requests answered `shutting_down`.
//
// Responses always leave in request order: every request occupies one slot
// of the loop's ordered in-flight window, completions fill slots out of
// order, and only the contiguous done-prefix is flushed.

#include <algorithm>
#include <csignal>

#include "isex/obs/journal.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/obs/trace.hpp"
#include "isex/serve/cache.hpp"
#include "isex/serve/json.hpp"
#include "isex/serve/server.hpp"
#include "isex/supervise/pool.hpp"

namespace isex::serve {
namespace {

bool signal_writes_crash_dump(int sig) {
  return sig == SIGABRT || sig == SIGSEGV || sig == SIGBUS || sig == SIGFPE ||
         sig == SIGILL;
}

}  // namespace

bool Server::start_pool() {
  // The transport fds are supervisor-only: every worker closes them.
  pool_ = std::make_unique<supervise::WorkerPool>(
      opts_, std::vector<int>{in_fd_, out_fd_});
  if (pool_->start()) return true;
  pool_.reset();
  return false;
}

void Server::classify(InflightEntry& ent) {
  // Bounded classification of a newly admitted line. Admin commands are
  // answered in-process (stats/introspect *must* see supervisor state);
  // everything else — including lines that do not parse — goes to a worker,
  // where the full decoder produces the proper response or error.
  ent.t0_ns = obs::clock_ns();
  ent.line_hash =
      fnv1a(ent.text.data(), ent.text.size(), 0xcbf29ce484222325ull);
  double req_budget_seconds = 0;
  bool admin = false;
  {
    JsonParseResult pr = json_parse(ent.text, opts_.limits.json);
    if (pr.ok() && pr.value.is_object()) {
      if (const Json* cmd = pr.value.find("cmd");
          cmd != nullptr && cmd->is_string()) {
        const std::string& s = cmd->as_string();
        admin = s == "ping" || s == "stats" || s == "introspect";
      }
      if (const Json* id = pr.value.find("id");
          id != nullptr && id->is_string() &&
          id->as_string().size() <= opts_.limits.max_id_bytes)
        ent.id = id->as_string();
      if (const Json* tb = pr.value.find("time_budget_ms");
          tb != nullptr && tb->is_number() && tb->as_number() > 0)
        req_budget_seconds = std::min(tb->as_number() * 1e-3,
                                      opts_.limits.max_time_budget_seconds);
    }
  }
  // Effective watchdog span (seconds, pre-grace).
  if (opts_.watchdog_seconds > 0)
    ent.watchdog_seconds = opts_.watchdog_seconds;
  else if (req_budget_seconds > 0)
    ent.watchdog_seconds = req_budget_seconds;
  else if (opts_.default_time_budget_seconds > 0)
    ent.watchdog_seconds = opts_.default_time_budget_seconds;
  else
    ent.watchdog_seconds = opts_.limits.max_time_budget_seconds;

  const int depth = std::max(0, admitted_ - 1);
  if (admin) {
    complete(ent, handle_line(ent.text, depth, ent.rid));
    return;
  }

  // Poison quarantine: refuse content that already killed its quota of
  // workers, before it gets near another one.
  if (pool_->is_quarantined(ent.line_hash)) {
    ++stats_.quarantine_hits;
    ISEX_COUNT("serve.quarantine_hits");
    finish(ent,
           render_error_extra(
               ent.id, ErrorCode::kQuarantined,
               "request content quarantined after killing " +
                   std::to_string(opts_.poison_kill_threshold) + " workers",
               "\"kills\":" + std::to_string(opts_.poison_kill_threshold),
               -1, ent.rid),
           obs::Disposition::kError, false);
    return;
  }

  // Supervisor result cache: exact request bytes, undemoted (rung 0)
  // results only. The stored object was certified by the worker that
  // produced it; semantic (cross-line) reuse still happens worker-side.
  if (shed_rung_for_depth(depth) == 0) {
    if (const ResultCache::Entry* e = cache_.find(ent.line_hash)) {
      ++stats_.cache_hits;
      ISEX_JOURNAL(kCacheLookup, kCache, 0, 1, 0);
      const double ms = static_cast<double>(obs::clock_ns() - ent.t0_ns) / 1e6;
      finish(ent,
             render_success(ent.id, e->result_json, /*cache_hit=*/true, depth,
                            ms, e->nodes_charged, ent.rid),
             obs::Disposition::kCached, false);
    }
  }
}

void Server::dispatch_to_pool() {
  // Classify new arrivals in request order and count what stays queued.
  int queued = 0;
  for (InflightEntry& ent : inflight_) {
    if (ent.done) continue;
    if (ent.t0_ns == 0) classify(ent);
    if (!ent.done && ent.worker < 0) ++queued;
  }
  // Dispatch queued entries, oldest first, each with the number of queued
  // requests behind it (drives worker-side shedding, like the inline
  // solve's depth does).
  const std::int64_t now = obs::clock_ns();
  const bool rejecting = pool_->breaker_open(now) && pool_->live_workers() == 0;
  for (InflightEntry& ent : inflight_) {
    if (ent.done || ent.worker >= 0) continue;
    --queued;
    if (rejecting) {
      ++stats_.breaker_rejected;
      ISEX_COUNT("serve.breaker_rejected");
      finish(ent,
             render_error(ent.id, ErrorCode::kWorkerUnavailable,
                          "worker pool restart storm: circuit breaker "
                          "open and no live workers",
                          pool_->breaker_retry_after_ms(now), ent.rid),
             obs::Disposition::kError, false);
      continue;
    }
    const int w = pool_->idle_worker();
    if (w < 0) break;
    if (pool_->dispatch(w, ent.rid, queued, ent.text, ent.watchdog_seconds)) {
      ent.worker = w;
      ++stats_.dispatched;
      ISEX_COUNT("serve.dispatched");
    }
    // A failed dispatch killed that worker; the entry stays queued and the
    // next pass retries on another one.
  }
}

void Server::finish_from_frame(InflightEntry& ent,
                               const supervise::PoolFrame& frame) {
  // A worker frame arrived for `ent`: adopt the worker-rendered response and
  // mirror its metadata into the supervisor's stats.
  const auto d = static_cast<obs::Disposition>(frame.hdr.disposition);
  const bool admin = (frame.hdr.flags & supervise::kRespFlagAdmin) != 0;
  const std::uint8_t ek = frame.hdr.error_kind;
  if (ek == 0) {
    if (d == obs::Disposition::kCached) {
      ++stats_.cache_hits;
    } else if (!admin) {
      ++stats_.solved;
      ISEX_COUNT("serve.requests.solved");
      if (frame.hdr.flags & supervise::kRespFlagDegraded) ++stats_.degraded;
      if (frame.hdr.flags & supervise::kRespFlagShed) {
        ++stats_.shed_demotions;
        ISEX_COUNT("serve.shed_demotions");
      }
    }
  } else {
    const auto code = static_cast<ErrorCode>(ek - 1);
    if (code == ErrorCode::kParseError)
      ++stats_.parse_errors;
    else if (code == ErrorCode::kBadRequest || code == ErrorCode::kTooLarge)
      ++stats_.bad_requests;
    else if (code == ErrorCode::kInternal)
      ++stats_.internal_errors;
  }
  // Cache rung-0 select results under the exact line bytes.
  if ((frame.hdr.flags & supervise::kRespFlagCacheable) != 0 &&
      (frame.hdr.flags & supervise::kRespFlagShed) == 0 &&
      frame.hdr.result_len > 0 &&
      static_cast<std::size_t>(frame.hdr.result_off) + frame.hdr.result_len <=
          frame.body.size() &&
      d != obs::Disposition::kCached) {
    ResultCache::Entry entry;
    entry.result_json =
        frame.body.substr(frame.hdr.result_off, frame.hdr.result_len);
    entry.nodes_charged = static_cast<long>(frame.hdr.nodes_charged);
    cache_.insert(ent.line_hash, std::move(entry));
  }
  if (!admin && ek == 0) {
    const double ms = static_cast<double>(obs::clock_ns() - ent.t0_ns) / 1e6;
    ewma_service_ms_ = 0.8 * ewma_service_ms_ + 0.2 * ms;
  }
  finish(ent, frame.body, d, admin);
}

void Server::handle_death(InflightEntry& ent, const supervise::PoolEvent& ev,
                          bool draining) {
  // A worker died while this entry was dispatched on it.
  const int kills = pool_->note_kill(ent.line_hash);
  const bool quarantined_now = kills == opts_.poison_kill_threshold;
  if (quarantined_now) {
    ++stats_.quarantined;
    ISEX_COUNT("serve.quarantined");
  }
  std::string extra = "\"signal\":" + std::to_string(ev.signal) +
                      ",\"worker\":" + std::to_string(ev.worker) +
                      ",\"kills\":" + std::to_string(kills);
  if (!opts_.crash_dump_path.empty() && signal_writes_crash_dump(ev.signal)) {
    extra += ",\"crash_dump\":" +
             json_quote(opts_.crash_dump_path + "." +
                        std::to_string(static_cast<long>(ev.pid)));
  }
  if (ev.watchdog) {
    finish(ent,
           render_error_extra(ent.id, ErrorCode::kWorkerTimeout,
                              "solve exceeded its watchdog deadline (" +
                                  std::to_string(ent.watchdog_seconds) +
                                  "s + grace); worker killed",
                              extra, -1, ent.rid),
           obs::Disposition::kError, false);
    return;
  }
  if (kills < opts_.poison_kill_threshold && !draining) {
    // Retry on another worker. Safe: solves are pure functions of the
    // request bytes with no external side effects, and each retry runs at
    // most once per worker (the killer never sees the line again).
    ent.worker = -1;
    ++stats_.requests_retried;
    ISEX_COUNT("serve.requests.retried");
    return;
  }
  finish(ent,
         render_error_extra(
             ent.id, ErrorCode::kWorkerCrashed,
             "worker pid " + std::to_string(static_cast<long>(ev.pid)) +
                 (ev.signal != 0
                      ? " died with signal " + std::to_string(ev.signal)
                      : " exited with status " +
                            std::to_string(ev.exit_status)) +
                 " while solving this request" +
                 (quarantined_now ? "; content quarantined" : ""),
             extra, -1, ent.rid),
         obs::Disposition::kError, false);
}

void Server::collect_from_pool(bool draining) {
  // Collect frames from every worker that has bytes (cheap no-op on the
  // quiet ones; poll revents bookkeeping is not worth the map).
  std::vector<supervise::PoolFrame> frames;
  for (const auto& r : pool_->poll_fds()) pool_->read_worker(r.worker, &frames);
  for (const supervise::PoolFrame& frame : frames) {
    for (InflightEntry& ent : inflight_) {
      if (!ent.done && ent.rid == frame.hdr.rid) {
        finish_from_frame(ent, frame);
        break;
      }
    }
    // Frames matching nothing (a response racing a watchdog kill whose
    // entry already finished) are dropped: the response slot is gone.
  }

  // Reap deaths, respawn under backoff/breaker, fire watchdogs.
  for (const supervise::PoolEvent& ev : pool_->maintain(obs::clock_ns())) {
    if (!ev.was_busy || ev.rid == 0) continue;
    for (InflightEntry& ent : inflight_) {
      if (!ent.done && ent.rid == ev.rid) {
        handle_death(ent, ev, draining);
        break;
      }
    }
  }
  stats_.worker_crashes = pool_->crashes();
  stats_.worker_timeouts = pool_->watchdog_kills();
  stats_.worker_respawns = pool_->respawns();
  stats_.breaker_opens = pool_->breaker_opens();
}

}  // namespace isex::serve
