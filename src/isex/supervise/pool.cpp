#include "isex/supervise/pool.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "isex/obs/journal.hpp"
#include "isex/obs/trace.hpp"
#include "isex/supervise/worker.hpp"

namespace isex::supervise {
namespace {

constexpr std::int64_t kBackoffBaseNs = 50'000'000;   // 50 ms
constexpr std::int64_t kBackoffCapNs = 2'000'000'000; // 2 s
constexpr int kBackoffMaxLevel = 5;

// Closes every fd except std{in,out,err} and `keep`. A worker must not hold
// any descriptor it did not ask for: an inherited client transport keeps the
// stream alive after the client closed it (EOF never arrives), an inherited
// listener keeps the socket bound after the supervisor dies. close_range(2)
// where the kernel has it; bounded brute force otherwise.
void close_all_fds_except(int keep) {
#ifdef __NR_close_range
  bool ok = true;
  if (keep > 3)
    ok &= ::syscall(__NR_close_range, 3u, static_cast<unsigned>(keep - 1),
                    0u) == 0;
  ok &= ::syscall(__NR_close_range,
                  static_cast<unsigned>(keep >= 3 ? keep + 1 : 3), ~0u,
                  0u) == 0;
  if (ok) return;
#endif
  struct rlimit rl{};
  long hi = 1024;
  if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY)
    hi = std::min<long>(static_cast<long>(rl.rlim_cur), 65536);
  for (long fd = 3; fd < hi; ++fd)
    if (fd != keep) ::close(static_cast<int>(fd));
}

}  // namespace

WorkerPool::WorkerPool(const serve::ServerOptions& opts,
                       std::vector<int> close_in_child)
    : opts_(opts),
      close_in_child_(std::move(close_in_child)),
      rng_state_(0x9e3779b97f4a7c15ull ^ (opts.chaos_seed | 1)) {
  const std::size_t max_frame = opts_.limits.max_request_bytes * 4 + 65536;
  slots_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) slots_.emplace_back(max_frame);
}

WorkerPool::~WorkerPool() {
  bool any = false;
  for (const Slot& s : slots_) any |= s.pid > 0;
  if (any) shutdown(0.5);
}

double WorkerPool::uniform() {
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  return static_cast<double>(rng_state_ >> 11) /
         static_cast<double>(std::uint64_t{1} << 53);
}

std::int64_t WorkerPool::backoff_delay_ns(int level) {
  const std::int64_t base =
      kBackoffBaseNs << std::min(level, kBackoffMaxLevel);
  const std::int64_t capped = std::min(base, kBackoffCapNs);
  // +/- 25% jitter de-synchronizes mass respawns after a common-cause kill.
  return static_cast<std::int64_t>(static_cast<double>(capped) *
                                   (0.75 + 0.5 * uniform()));
}

bool WorkerPool::spawn(int w, std::int64_t now_ns) {
  Slot& s = slots_[static_cast<std::size_t>(w)];
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    // Child: keep only our end of our socketpair. The explicit list covers
    // transports that may sit on fds 0-2 (`isex serve` over stdin/stdout);
    // the sweep covers everything else — sibling worker fds, the client
    // connection, the unix-socket listener. A worker holding any of those
    // would keep streams alive after their real owner closed them.
    ::close(sv[0]);
    for (int fd : close_in_child_)
      if (fd >= 0) ::close(fd);
    close_all_fds_except(sv[1]);
    worker_main(sv[1], opts_, w);  // never returns
  }
  ::close(sv[1]);
  const int fl = ::fcntl(sv[0], F_GETFL);
  if (fl >= 0) ::fcntl(sv[0], F_SETFL, fl | O_NONBLOCK);
  s.pid = pid;
  s.fd = sv[0];
  s.state = Slot::State::kLive;
  s.busy = false;
  s.rid = 0;
  s.deadline_ns = 0;
  s.watchdog_kill = false;
  s.eof = false;
  s.reader.reset();
  s.next_spawn_ns = now_ns;
  ISEX_JOURNAL(kWorkerSpawn, kNone, 0, w, pid);
  return true;
}

bool WorkerPool::start() {
  const std::int64_t now = obs::clock_ns();
  int live = 0;
  for (int w = 0; w < size(); ++w)
    if (spawn(w, now)) ++live;
  return live > 0;
}

int WorkerPool::live_workers() const {
  int n = 0;
  for (const Slot& s : slots_)
    if (s.state == Slot::State::kLive) ++n;
  return n;
}

int WorkerPool::idle_worker() const {
  for (int w = 0; w < size(); ++w) {
    const Slot& s = slots_[static_cast<std::size_t>(w)];
    if (s.state == Slot::State::kLive && !s.busy && !s.eof) return w;
  }
  return -1;
}

void WorkerPool::kill_slot(int w, bool watchdog) {
  Slot& s = slots_[static_cast<std::size_t>(w)];
  if (s.state != Slot::State::kLive || s.pid <= 0) return;
  ::kill(s.pid, SIGKILL);
  s.state = Slot::State::kKilled;
  s.watchdog_kill = watchdog;
  if (watchdog) {
    ++watchdog_kills_;
    ISEX_JOURNAL(kWorkerKill, kNone, 0, w, s.pid);
  }
}

bool WorkerPool::dispatch(int w, std::uint64_t rid, int queue_depth,
                          std::string_view line,
                          double watchdog_span_seconds) {
  Slot& s = slots_[static_cast<std::size_t>(w)];
  if (s.state != Slot::State::kLive || s.busy) return false;

  RequestHeader hdr;
  hdr.rid = rid;
  hdr.queue_depth = queue_depth;
  const std::string frame = encode_frame(hdr, line);

  // The fd is nonblocking; a worker that stops reading (stopped, wedged
  // before the chaos point, kernel buffer full) cannot block the
  // supervisor. Budget the write generously — a live worker drains a frame
  // in microseconds — and treat a timeout as a dead worker.
  const double span =
      watchdog_span_seconds > 0 ? watchdog_span_seconds : 5.0;
  const std::int64_t write_deadline =
      obs::clock_ns() +
      static_cast<std::int64_t>((span + opts_.watchdog_grace_seconds) * 1e9);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(s.fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const std::int64_t now = obs::clock_ns();
      if (now >= write_deadline) break;
      const int wait_ms = static_cast<int>(
          std::min<std::int64_t>((write_deadline - now) / 1'000'000, 100) + 1);
      struct pollfd pfd {s.fd, POLLOUT, 0};
      ::poll(&pfd, 1, wait_ms);
      continue;
    }
    break;  // EPIPE etc.: the worker is gone
  }
  if (off < frame.size()) {
    kill_slot(w, /*watchdog=*/false);
    return false;
  }
  s.busy = true;
  s.rid = rid;
  s.deadline_ns =
      obs::clock_ns() +
      static_cast<std::int64_t>((span + opts_.watchdog_grace_seconds) * 1e9);
  ISEX_JOURNAL(kDispatch, kTransport, 0, w, static_cast<std::int64_t>(rid));
  return true;
}

std::vector<WorkerPool::PollRef> WorkerPool::poll_fds() const {
  std::vector<PollRef> out;
  out.reserve(slots_.size());
  for (int w = 0; w < size(); ++w) {
    const Slot& s = slots_[static_cast<std::size_t>(w)];
    if (s.fd >= 0 && s.state != Slot::State::kDead)
      out.push_back(PollRef{w, s.fd});
  }
  return out;
}

void WorkerPool::read_worker(int w, std::vector<PoolFrame>* out) {
  Slot& s = slots_[static_cast<std::size_t>(w)];
  if (s.fd < 0) return;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(s.fd, buf, sizeof buf);
    if (n > 0) {
      s.reader.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    s.eof = true;  // EOF or hard error: maintain() will reap the child
    break;
  }
  PoolFrame f;
  f.worker = w;
  while (s.reader.next(&f.hdr, &f.body)) {
    if (s.busy && f.hdr.rid == s.rid) {
      s.busy = false;
      s.rid = 0;
      s.deadline_ns = 0;
    }
    ++s.handled;
    s.backoff_level = 0;  // a served frame proves the worker is healthy
    out->push_back(std::move(f));
    f = PoolFrame{};
    f.worker = w;
  }
  if (s.reader.error()) kill_slot(w, /*watchdog=*/false);
}

std::vector<PoolEvent> WorkerPool::maintain(std::int64_t now_ns) {
  std::vector<PoolEvent> events;
  for (int w = 0; w < size(); ++w) {
    Slot& s = slots_[static_cast<std::size_t>(w)];

    // Hung-solve watchdog: a busy worker past its deadline gets SIGKILL.
    if (s.state == Slot::State::kLive && s.busy && s.deadline_ns != 0 &&
        now_ns > s.deadline_ns) {
      kill_slot(w, /*watchdog=*/true);
    }

    // Reap. WNOHANG on a healthy child returns 0 and costs nothing.
    if (s.pid > 0 && s.state != Slot::State::kDead) {
      int st = 0;
      const pid_t r = ::waitpid(s.pid, &st, WNOHANG);
      if (r == s.pid) {
        PoolEvent ev;
        ev.worker = w;
        ev.pid = s.pid;
        ev.signal = WIFSIGNALED(st) ? WTERMSIG(st) : 0;
        ev.exit_status = WIFEXITED(st) ? WEXITSTATUS(st) : 0;
        ev.watchdog = s.watchdog_kill;
        ev.was_busy = s.busy;
        ev.rid = s.rid;
        ISEX_JOURNAL(kWorkerExit, kNone, 0,
                     ev.signal != 0 ? ev.signal : -ev.exit_status, s.pid);
        const bool clean_drain =
            draining_ && ev.signal == 0 && ev.exit_status == 0;
        if (!clean_drain && !ev.watchdog) {
          ++crashes_;
          ++s.slot_crashes;
        }
        if (s.fd >= 0) ::close(s.fd);
        s.fd = -1;
        s.pid = -1;
        s.state = Slot::State::kDead;
        s.busy = false;
        s.rid = 0;
        s.deadline_ns = 0;
        s.watchdog_kill = false;
        s.eof = false;
        s.reader.reset();
        s.next_spawn_ns = now_ns + backoff_delay_ns(s.backoff_level);
        if (s.backoff_level < kBackoffMaxLevel + 2) ++s.backoff_level;
        events.push_back(ev);
      }
    }

    // Respawn, unless draining or the breaker is open.
    if (s.state == Slot::State::kDead && !draining_ &&
        now_ns >= s.next_spawn_ns && !breaker_open(now_ns)) {
      if (spawn(w, now_ns)) {
        ++respawns_;
        respawn_times_ns_.push_back(now_ns);
        const std::int64_t window = static_cast<std::int64_t>(
            opts_.breaker_window_seconds * 1e9);
        while (!respawn_times_ns_.empty() &&
               now_ns - respawn_times_ns_.front() > window)
          respawn_times_ns_.pop_front();
        if (static_cast<int>(respawn_times_ns_.size()) >
            opts_.breaker_max_respawns) {
          breaker_until_ns_ =
              now_ns + static_cast<std::int64_t>(
                           opts_.breaker_cooldown_seconds * 1e9);
          ++breaker_opens_;
        }
      }
    }
  }
  return events;
}

std::int64_t WorkerPool::next_deadline_ns() const {
  std::int64_t best = 0;
  for (const Slot& s : slots_) {
    if (s.state == Slot::State::kLive && s.busy && s.deadline_ns != 0 &&
        (best == 0 || s.deadline_ns < best))
      best = s.deadline_ns;
  }
  return best;
}

int WorkerPool::note_kill(std::uint64_t line_hash) {
  const int n = ++kill_counts_[line_hash];
  if (n == opts_.poison_kill_threshold)
    ISEX_JOURNAL(kQuarantine, kNone, 0, n, 0);
  return n;
}

bool WorkerPool::is_quarantined(std::uint64_t line_hash) const {
  const auto it = kill_counts_.find(line_hash);
  return it != kill_counts_.end() && it->second >= opts_.poison_kill_threshold;
}

std::size_t WorkerPool::quarantine_size() const {
  std::size_t n = 0;
  for (const auto& [hash, kills] : kill_counts_)
    if (kills >= opts_.poison_kill_threshold) ++n;
  return n;
}

bool WorkerPool::breaker_open(std::int64_t now_ns) const {
  return now_ns < breaker_until_ns_;
}

long WorkerPool::breaker_retry_after_ms(std::int64_t now_ns) const {
  if (!breaker_open(now_ns)) return 1;
  return std::max<long>(
      1, static_cast<long>((breaker_until_ns_ - now_ns) / 1'000'000));
}

void WorkerPool::begin_drain() {
  draining_ = true;
  for (Slot& s : slots_)
    if (s.state == Slot::State::kLive && s.pid > 0) ::kill(s.pid, SIGTERM);
}

int WorkerPool::shutdown(double timeout_seconds) {
  begin_drain();
  // Closing our socket ends makes idle workers see EOF and exit even if a
  // SIGTERM raced with their read loop.
  for (Slot& s : slots_) {
    if (s.fd >= 0) ::close(s.fd);
    s.fd = -1;
  }
  const std::int64_t deadline =
      obs::clock_ns() + static_cast<std::int64_t>(timeout_seconds * 1e9);
  for (;;) {
    bool pending = false;
    for (Slot& s : slots_) {
      if (s.pid <= 0) continue;
      int st = 0;
      if (::waitpid(s.pid, &st, WNOHANG) == s.pid) {
        s.pid = -1;
        s.state = Slot::State::kDead;
      } else {
        pending = true;
      }
    }
    if (!pending || obs::clock_ns() >= deadline) break;
    ::usleep(10'000);
  }
  int killed = 0;
  for (Slot& s : slots_) {
    if (s.pid <= 0) continue;
    ::kill(s.pid, SIGKILL);
    ++killed;
    int st = 0;
    ::waitpid(s.pid, &st, 0);
    s.pid = -1;
    s.state = Slot::State::kDead;
  }
  return killed;
}

std::vector<pid_t> WorkerPool::pids() const {
  std::vector<pid_t> out;
  for (const Slot& s : slots_)
    if (s.pid > 0 && s.state == Slot::State::kLive) out.push_back(s.pid);
  return out;
}

void WorkerPool::write_json(util::JsonWriter& w, std::int64_t now_ns) const {
  w.begin_object().key("configured").integer(size());
  w.key("live").integer(live_workers());
  w.key("crashes").integer(crashes_);
  w.key("respawns").integer(respawns_);
  w.key("watchdog_kills").integer(watchdog_kills_);
  w.key("breaker").begin_object().key("open").boolean(breaker_open(now_ns));
  w.key("opens").integer(breaker_opens_);
  w.key("window_respawns").integer(respawn_times_ns_.size()).end_object();
  w.key("quarantine").begin_object().key("entries").integer(quarantine_size());
  w.key("tracked_hashes").integer(kill_counts_.size()).end_object();
  w.key("per_worker").begin_array();
  for (int i = 0; i < size(); ++i) {
    const Slot& s = slots_[static_cast<std::size_t>(i)];
    w.begin_object().key("index").integer(i);
    w.key("pid").integer(s.pid > 0 ? s.pid : -1);
    w.key("state").string(s.state == Slot::State::kDead     ? "dead"
                          : s.state == Slot::State::kKilled ? "killed"
                          : s.busy                          ? "busy"
                                                            : "idle");
    w.key("handled").integer(s.handled);
    w.key("crashes").integer(s.slot_crashes).end_object();
  }
  w.end_array().end_object();
}

}  // namespace isex::supervise
