// isex::supervise — the supervisor side of the crash-isolated worker pool.
//
// WorkerPool owns the process-lifecycle half of the failure matrix; the
// request semantics (what a death *means* for the request that caused it)
// stay in serve::Server's pool-mode dispatch (serve/pooled.cpp), which
// consumes the pool's events:
//
//   failure              detection                    pool response
//   -------------------  --------------------------  ----------------------
//   worker crash         waitpid (signal/exit)        reap, PoolEvent, then
//                                                     respawn with jittered
//                                                     exponential backoff
//   hung solve           per-request watchdog         SIGKILL, PoolEvent
//                        deadline (budget + grace)    {watchdog=true}
//   restart storm        > breaker_max_respawns in    breaker opens: no
//                        breaker_window_seconds       respawns for cooldown
//   poison request       kill counts per content      note_kill/is_quaran-
//                        hash (fed by the server)     tined bookkeeping
//   torn frame stream    FrameReader::error()         SIGKILL + respawn
//
// All fds are nonblocking on the supervisor side and every write goes
// through a deadline loop, so no worker state — wedged, stopped, dead —
// can ever block the supervisor.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <sys/types.h>

#include "isex/serve/server.hpp"
#include "isex/supervise/frame.hpp"

namespace isex::supervise {

/// One worker death (crash, watchdog kill, clean exit) the supervisor must
/// translate into request semantics.
struct PoolEvent {
  int worker = -1;
  pid_t pid = -1;
  int signal = 0;        // terminating signal; 0 = plain exit
  int exit_status = 0;   // meaningful when signal == 0
  bool watchdog = false; // the hung-solve watchdog SIGKILLed it
  bool was_busy = false; // a request was in flight on this worker
  std::uint64_t rid = 0; // that request's rid when was_busy
};

/// One complete response frame read off a worker socket.
struct PoolFrame {
  int worker = -1;
  ResponseHeader hdr;
  std::string body;
};

class WorkerPool {
 public:
  /// `close_in_child` lists supervisor-only fds (the client transport) every
  /// forked worker closes, so a dead supervisor's pipes do not stay open.
  explicit WorkerPool(const serve::ServerOptions& opts,
                      std::vector<int> close_in_child = {});
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Forks the initial complement. Returns false if not a single worker
  /// could be spawned (the caller should fail the stream, not limp along).
  bool start();

  int size() const { return static_cast<int>(slots_.size()); }
  int live_workers() const;
  int idle_worker() const;  // lowest-index live idle worker, or -1

  /// Sends one request frame to (idle, live) worker `w` and arms its
  /// watchdog: deadline = now + (watchdog_span_seconds + grace). The write
  /// runs against the nonblocking fd with its own deadline; a worker that
  /// will not accept the frame is SIGKILLed and false is returned (the
  /// caller re-dispatches elsewhere).
  bool dispatch(int w, std::uint64_t rid, int queue_depth,
                std::string_view line, double watchdog_span_seconds);

  /// Poll integration: every open worker fd with its owning index.
  struct PollRef {
    int worker;
    int fd;
  };
  std::vector<PollRef> poll_fds() const;

  /// Drains whatever is readable on worker `w` into its frame reader and
  /// appends complete frames to *out. EOF and torn streams are noted for
  /// maintain() to turn into death events; they never throw or block.
  void read_worker(int w, std::vector<PoolFrame>* out);

  /// One maintenance pass: watchdog-kill overdue workers, reap dead
  /// children (waitpid WNOHANG), respawn under backoff + breaker. Returns
  /// the death events observed this pass.
  std::vector<PoolEvent> maintain(std::int64_t now_ns);

  /// Earliest armed watchdog deadline (ns), or 0 when nothing is in flight
  /// — bounds the supervisor's poll timeout.
  std::int64_t next_deadline_ns() const;

  // --- poison-request quarantine (content-hash keyed) ---------------------
  /// Records that request content `line_hash` killed a worker; returns the
  /// new kill count. The server quarantines at poison_kill_threshold.
  int note_kill(std::uint64_t line_hash);
  bool is_quarantined(std::uint64_t line_hash) const;
  std::size_t quarantine_size() const;

  // --- restart-storm circuit breaker --------------------------------------
  bool breaker_open(std::int64_t now_ns) const;
  long breaker_retry_after_ms(std::int64_t now_ns) const;

  // --- drain / shutdown ---------------------------------------------------
  /// SIGTERMs every live worker (they cancel the in-flight solve, answer,
  /// and exit) and stops all future respawns.
  void begin_drain();
  /// Closes all fds, reaps with `timeout_seconds` patience, SIGKILLs the
  /// stragglers and reaps those too. Returns the number SIGKILLed.
  int shutdown(double timeout_seconds);

  // --- introspection ------------------------------------------------------
  std::vector<pid_t> pids() const;
  /// Per-worker state plus breaker/quarantine, as one JSON object (the
  /// `introspect` response's `worker_pool` member).
  void write_json(util::JsonWriter& w, std::int64_t now_ns) const;

  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t respawns() const { return respawns_; }
  std::uint64_t watchdog_kills() const { return watchdog_kills_; }
  std::uint64_t breaker_opens() const { return breaker_opens_; }

 private:
  struct Slot {
    pid_t pid = -1;
    int fd = -1;
    enum class State {
      kDead,    // no process; may be awaiting its respawn time
      kLive,    // running (possibly busy)
      kKilled,  // SIGKILL sent, awaiting waitpid
    } state = State::kDead;
    bool busy = false;
    std::uint64_t rid = 0;
    std::int64_t deadline_ns = 0;
    bool watchdog_kill = false;  // the pending death was a watchdog kill
    bool eof = false;            // socket EOF seen before the reap
    FrameReader reader;
    std::int64_t next_spawn_ns = 0;
    int backoff_level = 0;  // consecutive deaths; reset on a served frame
    std::uint64_t handled = 0;
    std::uint64_t slot_crashes = 0;

    explicit Slot(std::size_t max_frame) : reader(max_frame) {}
  };

  bool spawn(int w, std::int64_t now_ns);
  void kill_slot(int w, bool watchdog);
  std::int64_t backoff_delay_ns(int level);
  double uniform();  // deterministic jitter source

  serve::ServerOptions opts_;
  std::vector<int> close_in_child_;
  std::vector<Slot> slots_;
  bool draining_ = false;

  std::deque<std::int64_t> respawn_times_ns_;  // breaker sliding window
  std::int64_t breaker_until_ns_ = 0;

  std::unordered_map<std::uint64_t, int> kill_counts_;

  std::uint64_t crashes_ = 0;
  std::uint64_t respawns_ = 0;
  std::uint64_t watchdog_kills_ = 0;
  std::uint64_t breaker_opens_ = 0;

  std::uint64_t rng_state_;
};

}  // namespace isex::supervise
