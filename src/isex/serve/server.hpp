// isex::serve — the hardened customization-as-a-service daemon.
//
// One event loop (Server::run) over a byte-stream transport (stdin/pipe, or
// a unix socket via run_unix_socket): newline-delimited JSON requests in,
// one response line per request out, always in request order. Every line
// takes one slot of an ordered in-flight window as it is read; responses
// leave strictly from the front of that window, so a request that finishes
// early waits for the ones ahead of it.
//
// The loop thread owns admission, ordering, shedding, drain and the
// journal. Only dispatch differs between the two modes: with workers == 0
// the loop solves the oldest queued request inline (the solvers fan out
// over util::TaskPool, see --threads); with workers > 0 it hands requests
// to pre-forked crash-isolated worker processes (supervise/pool.hpp) and
// answers admin lines, quarantined content and exact-byte cache hits
// itself. Either way the server's job is *surviving*: hostile bytes,
// overload, poisoned requests and signals, with the robust/certify/obs
// layers supplying budgets, witnesses and metrics.
//
// Overload behavior, outermost defense first:
//  1. Transport backpressure. The input buffer and the window are bounded;
//     when the window fills, the server simply stops reading and the kernel
//     blocks the sender. Memory is O(window) no matter what arrives.
//  2. Admission control. A request arriving while queue_capacity admitted
//     requests are unanswered is rejected immediately with error code
//     "overload" and a retry_after_ms hint (EWMA service time x queue
//     depth). The rejection enters the window as a finished tombstone, so
//     responses stay in request order.
//  3. Load shedding. Admitted requests solved while the queue is deep are
//     demoted down the graceful-degradation ladder (FallbackOptions::
//     start_rung): depth > shed1_depth skips the exact rung, depth >
//     shed2_depth goes straight to the cheapest rung. Pressure buys latency
//     with optimality-gap, never with queueing or a wedge.
//  4. Per-request budgets. Every solve runs under its own robust::Budget
//     (request values clamped to the server caps, server defaults
//     otherwise), so one adversarial instance cannot starve the queue.
//
// Isolation: each request is decoded by the bounded parser, solved under
// its own budget, certified by the witness checkers, and wrapped in a
// catch-all that turns any escape into an "internal" error response — the
// loop itself never unwinds. Cached results are re-certified against a
// freshly built task set before reuse, so shared state (the cache) can only
// ever serve answers that check out now (see cache.hpp).
//
// Shutdown: SIGTERM/SIGINT (install_signal_handlers) stops reading, answers
// every request not yet solving with "shutting_down", lets in-flight solves
// finish (workers get drain_timeout_seconds), flushes, and run() returns 0 —
// the deterministic clean-drain exit. A second signal aborts immediately
// with exit 128+sig.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/types.h>

#include "isex/obs/journal.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/robust/budget.hpp"
#include "isex/serve/cache.hpp"
#include "isex/serve/protocol.hpp"

namespace isex::supervise {
class WorkerPool;
struct PoolEvent;
struct PoolFrame;
}

namespace isex::serve {

struct ServerOptions {
  RequestLimits limits;
  int queue_capacity = 64;  // admitted-but-unsolved requests
  int shed1_depth = 16;     // queue depth above which the exact rung is skipped
  int shed2_depth = 32;     // depth above which only the cheapest rung runs
  /// Per-request execution budget defaults (applied when the request does
  /// not set its own); <= 0 / < 0 / 0 mean unlimited.
  double default_time_budget_seconds = 2.0;
  long default_node_budget = 2'000'000;
  std::size_t default_mem_budget_bytes = std::size_t{256} << 20;
  CacheOptions cache;
  bool paranoid = false;  // exhaustive certification on every request
  /// Periodic introspection flush: every stats_interval_seconds the run()
  /// loop writes the introspect JSON to stats_path via the atomic
  /// temp+rename writer (empty path or interval <= 0 disables it). Readers
  /// always see either the previous complete snapshot or the new one.
  std::string stats_path;
  double stats_interval_seconds = 0;

  // --- process supervision (workers > 0 makes run() dispatch to the
  // pre-forked crash-isolated pool; see supervise/pool.hpp and DESIGN.md) --
  int workers = 0;  // 0 = solve in-process (the original single-process mode)
  /// Watchdog deadline for a dispatched request: watchdog_seconds when > 0,
  /// else the request's effective time budget (server default / schema cap
  /// as fallbacks), plus the grace. Overdue workers are SIGKILLed.
  double watchdog_seconds = 0;
  double watchdog_grace_seconds = 2.0;
  /// Graceful-drain patience: SIGTERM forwards cancel to workers, waits this
  /// long for in-flight responses, then SIGKILLs the stragglers.
  double drain_timeout_seconds = 5.0;
  /// A request whose processing kills this many workers (crash or watchdog)
  /// is quarantined by content hash and answered with a structured error
  /// instead of being retried forever. Retries before that: threshold - 1.
  int poison_kill_threshold = 2;
  /// Restart-storm circuit breaker: more than breaker_max_respawns worker
  /// respawns inside breaker_window_seconds opens the breaker for
  /// breaker_cooldown_seconds — no respawns, and selects with no live worker
  /// are answered "worker_unavailable" immediately.
  int breaker_max_respawns = 5;
  double breaker_window_seconds = 10.0;
  double breaker_cooldown_seconds = 5.0;
  /// Chaos mode (--chaos p): workers randomly abort/segfault/hang/leak with
  /// this probability, decided deterministically per request content (see
  /// supervise/chaos.hpp). Production value: 0.
  double chaos_probability = 0;
  std::uint64_t chaos_seed = 20070613;
  /// Per-worker rlimits applied after fork; 0 disables a limit. RLIMIT_AS is
  /// skipped automatically under asan/tsan/msan (shadow mappings).
  std::size_t worker_mem_limit_bytes = std::size_t{4} << 30;  // RLIMIT_AS
  long worker_cpu_limit_seconds = 600;                        // RLIMIT_CPU
  long worker_nofile_limit = 64;                              // RLIMIT_NOFILE
  /// Crash-dump base path forwarded to workers: each process dumps its
  /// flight recorder to `<path>.<pid>` (see obs::set_crash_dump_path).
  std::string crash_dump_path;
};

/// Monotonic counters the stats command and the drain summary report.
struct ServerStats {
  std::uint64_t lines_in = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_too_large = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t solved = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_poisoned = 0;
  std::uint64_t shed_demotions = 0;
  std::uint64_t degraded = 0;  // responses with a non-Exact status
  std::uint64_t internal_errors = 0;
  std::uint64_t drained = 0;  // queued requests answered "shutting_down"
  // Worker-pool lifecycle (always present; all zero when workers == 0).
  std::uint64_t dispatched = 0;        // frames sent to workers
  std::uint64_t worker_crashes = 0;    // workers that died (signal or exit)
  std::uint64_t worker_timeouts = 0;   // watchdog SIGKILLs of hung solves
  std::uint64_t worker_respawns = 0;   // replacement workers forked
  std::uint64_t requests_retried = 0;  // re-dispatches after a worker death
  std::uint64_t quarantined = 0;       // poison requests quarantined
  std::uint64_t quarantine_hits = 0;   // requests rejected as quarantined
  std::uint64_t breaker_opens = 0;     // circuit-breaker open transitions
  std::uint64_t breaker_rejected = 0;  // "worker_unavailable" responses
};

/// Everything the worker side needs to report about the response it just
/// produced, without the supervisor re-parsing the JSON (becomes the
/// supervise::ResponseHeader of the reply frame).
struct ResponseMeta {
  obs::Disposition disposition = obs::Disposition::kError;
  bool is_admin = false;
  bool degraded = false;   // solver status was not Exact
  bool shed = false;       // solved from a demoted rung
  std::uint8_t error_kind = 0;  // 0 = ok, else ErrorCode + 1
  long nodes_charged = 0;
  /// The stable `result` object of a successful select (what the cache
  /// stores); empty when the response is not cacheable.
  std::string result_json;
};

class Server {
 public:
  explicit Server(const ServerOptions& opts);
  ~Server();  // shuts the worker pool down, if one was started

  /// Serves one byte stream until EOF or a pending signal; responses go to
  /// out_fd. Returns 0 on clean EOF or graceful drain, 2 on a transport
  /// write error. Reentrant across streams — the cache, stats and worker
  /// pool persist, per-stream state resets. With opts.workers > 0 requests
  /// are dispatched to the crash-isolated pool; otherwise they are solved
  /// in-process.
  int run(int in_fd, int out_fd);

  /// In-process entry point (tests, fuzzing, soak, and the worker loop):
  /// decodes and handles one request line, returning the response line (no
  /// trailing newline). Never throws. `queue_depth` simulates admitted
  /// pressure for the shedding policy. rid != 0 uses the caller-assigned
  /// flight-recorder id (the supervisor's) instead of allocating one.
  std::string handle_line(std::string_view line, int queue_depth = 0,
                          std::uint64_t rid = 0);

  /// Metadata of the last handle_line response (worker -> supervisor frame).
  const ResponseMeta& last_meta() const { return meta_; }

  const ServerStats& stats() const { return stats_; }
  const ResultCache& cache() const { return cache_; }
  const ServerOptions& options() const { return opts_; }

  /// Live worker pids (empty when workers == 0 or the pool has not started).
  /// Test/introspection surface for killing and inspecting real workers.
  std::vector<pid_t> worker_pids() const;

  /// The introspect payload: the stats object plus the full obs metrics
  /// registry, flight-recorder state and the effective server options.
  /// Exposed for the periodic flush and tests.
  std::string render_introspect(int queue_depth) const;

  /// The introspect `worker_pool` value: live per-worker state plus breaker
  /// and quarantine counters, or null when the pool has not started.
  void write_worker_pool(util::JsonWriter& w) const;

 private:
  /// One ordered slot of the in-flight window: an admitted request on its
  /// way to a response, or a response that is already final (a tombstone,
  /// or a finished request waiting for the ones ahead of it). Responses are
  /// flushed strictly from the front, so completion order never leaks out.
  struct InflightEntry {
    bool done = false;
    std::string text;  // request line until done, then the response line
    std::uint64_t rid = 0;  // assigned at admission
    // Pool mode only, filled in by classify().
    std::int64_t t0_ns = 0;       // classification time; 0 = not classified
    std::uint64_t line_hash = 0;  // content hash (cache + quarantine key)
    std::string id;               // extracted correlation id
    int worker = -1;              // dispatched worker index; -1 = queued
    double watchdog_seconds = 0;  // effective per-request deadline span
  };

  // Input pumping and admission (defense layers 1 and 2).
  void pump_input();
  void split_lines();
  void ingest_line(std::string line);
  std::size_t window_cap() const;
  std::string extract_id(std::string_view line) const;
  long retry_after_ms() const;

  // Request handling (defense layers 3 and 4).
  int shed_rung_for_depth(int depth) const;
  std::string handle_request(const Request& req, int queue_depth,
                             std::uint64_t rid);
  std::string handle_select(const Request& req, int queue_depth,
                            std::uint64_t rid);
  std::string render_stats(int queue_depth) const;

  /// Records one response in the flight recorder (one kResponse record per
  /// response) and, when `timed`, in the per-disposition latency histograms.
  void note_response(obs::Disposition d, bool timed, std::int64_t dur_ns,
                     std::size_t response_bytes);
  void maybe_flush_stats();

  // The event loop's shared steps (server.cpp).
  void solve_oldest();
  void complete(InflightEntry& ent, std::string response);
  void finish(InflightEntry& ent, std::string response, obs::Disposition d,
              bool is_admin);
  void finish_drained(InflightEntry& ent);
  void flush_done_prefix(bool reading);
  void wait_for_work(bool draining, std::int64_t drain_deadline_ns);
  bool write_line(int out_fd, std::string_view line);

  // Pool-mode dispatch (serve/pooled.cpp): bounded classification in the
  // supervisor, decode/solve/certify on a worker, and the failure matrix
  // (crash, hang, poison, restart storm).
  bool start_pool();
  void classify(InflightEntry& ent);
  void dispatch_to_pool();
  void collect_from_pool(bool draining);
  void finish_from_frame(InflightEntry& ent, const supervise::PoolFrame& frame);
  void handle_death(InflightEntry& ent, const supervise::PoolEvent& ev,
                    bool draining);

  ServerOptions opts_;
  ResultCache cache_;
  ServerStats stats_;
  double ewma_service_ms_ = 5.0;

  // Request ids are the flight-recorder correlation key: assigned by the
  // server itself (not obs) so responses are identical with and without
  // ISEX_NO_OBS. rid 0 is reserved for "no request".
  std::uint64_t next_rid_ = 0;
  // Metadata of the response being assembled: set by the handlers,
  // consumed by handle_line and the worker frame; single-threaded by design.
  ResponseMeta meta_;

  // Pool mode only: the worker pool, started by the first run() and torn
  // down by the destructor, so it survives across streams like the cache.
  std::unique_ptr<supervise::WorkerPool> pool_;

  // Request latency in microseconds, total and per disposition. These are
  // direct obs::Histogram members (not registry macros) so the `stats`
  // response is bit-identical between ISEX_NO_OBS builds — the classes are
  // always compiled; only instrumentation macros vanish.
  obs::Histogram lat_total_, lat_exact_, lat_degraded_, lat_shed_,
      lat_cached_, lat_error_;

  std::int64_t last_flush_ns_ = 0;

  // Per-stream state (reset by run()).
  int in_fd_ = -1, out_fd_ = -1;
  std::string inbuf_;
  bool discarding_ = false;  // inside an oversized line, dropping until '\n'
  bool eof_ = false;
  bool write_failed_ = false;
  std::deque<InflightEntry> inflight_;  // the ordered window
  int admitted_ = 0;  // admitted requests not yet answered
  std::vector<struct pollfd> pfds_;  // poll set, reused across passes
};

/// Accept loop for `isex serve --socket PATH`: binds a unix stream socket
/// (replacing any stale file), serves connections one at a time with the
/// same Server (shared cache), and drains on SIGTERM/SIGINT. Returns 0 on
/// graceful shutdown, 2 on socket errors.
int run_unix_socket(Server& server, const std::string& path);

/// Installs the graceful-shutdown handlers: first SIGINT/SIGTERM sets the
/// pending-signal flag and requests global solver cancellation
/// (robust::request_global_cancel), a second one force-exits 128+sig.
/// SIGPIPE is ignored so a vanished client surfaces as a write error, not
/// process death. Call once from main(), never from tests.
void install_signal_handlers();

/// The signal recorded by the handler, or 0. consume clears it (used by the
/// one-shot CLI to map an interruption to exit 128+sig exactly once).
int pending_signal();
int consume_pending_signal();

}  // namespace isex::serve
