#include "isex/obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <optional>
#include <ostream>

#include "isex/util/json_writer.hpp"
#include "isex/util/table.hpp"

namespace isex::obs {

std::int64_t clock_ns() {
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady);
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

bool clock_is_steady() { return std::chrono::steady_clock::is_steady; }

int current_tid() {
  static std::atomic<int> next{1};
  thread_local int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

TraceBuffer& TraceBuffer::global() {
  static TraceBuffer* b = new TraceBuffer;  // leaked: outlives static dtors
  return *b;
}

void TraceBuffer::set_capacity(std::size_t cap) {
  std::scoped_lock lock(mu_);
  capacity_ = cap;
}

void TraceBuffer::record(TraceEvent e) {
  std::scoped_lock lock(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(e));
}

void TraceBuffer::set_thread_name(int pid, int tid, std::string name) {
  std::scoped_lock lock(mu_);
  for (auto& [key, n] : thread_names_)
    if (key == std::pair{pid, tid}) {
      n = std::move(name);
      return;
    }
  thread_names_.emplace_back(std::pair{pid, tid}, std::move(name));
}

void TraceBuffer::clear() {
  std::scoped_lock lock(mu_);
  events_.clear();
  thread_names_.clear();
  dropped_ = 0;
}

std::size_t TraceBuffer::size() const {
  std::scoped_lock lock(mu_);
  return events_.size();
}

std::uint64_t TraceBuffer::dropped() const {
  std::scoped_lock lock(mu_);
  return dropped_;
}

std::vector<TraceEvent> TraceBuffer::events() const {
  std::scoped_lock lock(mu_);
  return events_;
}

namespace {

/// Chrome trace timestamps are microseconds. Wall events carry ns (exported
/// with fractional-us precision); sim events carry cycles mapped 1:1 to us.
void write_ts(util::JsonWriter& w, int pid, std::int64_t v) {
  if (pid == kSimPid)
    w.integer(v);
  else
    w.number(static_cast<double>(v) / 1e3, 3);
}

/// A metadata record naming a process (no tid) or one of its threads.
void write_name(util::JsonWriter& w, int pid, std::optional<int> tid,
                std::string_view name) {
  w.begin_object().key("ph").string("M");
  w.key("name").string(tid ? "thread_name" : "process_name");
  w.key("pid").integer(pid);
  if (tid) w.key("tid").integer(*tid);
  w.key("args").begin_object().key("name").string(name);
  w.end_object().end_object();
}

}  // namespace

void TraceBuffer::write_chrome_json(std::ostream& out) const {
  std::scoped_lock lock(mu_);
  util::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  write_name(w, kWallPid, std::nullopt, "isex wall clock");
  write_name(w, kSimPid, std::nullopt, "rt virtual time (1 cycle = 1us)");
  for (const auto& [key, name] : thread_names_)
    write_name(w, key.first, key.second, name);
  for (const TraceEvent& e : events_) {
    const char* ph = e.phase == TraceEvent::Phase::kComplete ? "X"
                     : e.phase == TraceEvent::Phase::kInstant ? "i"
                                                              : "C";
    w.begin_object().key("ph").string(ph).key("name").string(e.name);
    w.key("cat").string(e.cat).key("pid").integer(e.pid);
    w.key("tid").integer(e.tid);
    write_ts(w.key("ts"), e.pid, e.ts);
    if (e.phase == TraceEvent::Phase::kComplete)
      write_ts(w.key("dur"), e.pid, e.dur);
    if (e.phase == TraceEvent::Phase::kInstant) w.key("s").string("t");
    if (!e.args.empty()) {
      w.key("args").begin_object();
      for (const auto& [k, v] : e.args) w.key(k).string(v);
      w.end_object();
    }
    w.end_object();
    // Stream in pieces: a full buffer holds a million events.
    if (w.str().size() >= (std::size_t{1} << 16)) {
      out << w.str();
      w.clear_text();
    }
  }
  w.end_array().end_object();
  out << w.str() << '\n';
}

void TraceBuffer::write_csv(std::ostream& out) const {
  std::scoped_lock lock(mu_);
  out << "phase,name,cat,pid,tid,ts,dur,args\n";
  for (const TraceEvent& e : events_) {
    const char* ph = e.phase == TraceEvent::Phase::kComplete ? "complete"
                     : e.phase == TraceEvent::Phase::kInstant ? "instant"
                                                              : "counter";
    std::string args;
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      if (i) args += ';';
      args += e.args[i].first + '=' + e.args[i].second;
    }
    out << ph << ',' << util::csv_escape(e.name) << ','
        << util::csv_escape(e.cat) << ',' << e.pid << ',' << e.tid << ','
        << e.ts << ',' << e.dur << ',' << util::csv_escape(args) << '\n';
  }
}

Span::Span(std::string_view name, std::string_view cat)
    : armed_(TraceBuffer::global().enabled()) {
  if (!armed_) return;
  start_ns_ = clock_ns();
  name_ = name;
  cat_ = cat;
}

Span::~Span() {
  if (!armed_) return;
  TraceEvent e;
  e.phase = TraceEvent::Phase::kComplete;
  e.name = std::move(name_);
  e.cat = std::move(cat_);
  e.pid = kWallPid;
  e.tid = current_tid();
  e.ts = start_ns_;
  e.dur = clock_ns() - start_ns_;
  e.args = std::move(args_);
  TraceBuffer::global().record(std::move(e));
}

void Span::arg(std::string_view key, std::string_view value) {
  if (!armed_) return;
  args_.emplace_back(std::string(key), std::string(value));
}

void trace_instant(std::string_view name, std::string_view cat, int pid,
                   int tid, std::int64_t ts,
                   std::vector<std::pair<std::string, std::string>> args) {
  TraceBuffer& tb = TraceBuffer::global();
  if (!tb.enabled()) return;
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.name = std::string(name);
  e.cat = std::string(cat);
  e.pid = pid;
  e.tid = tid;
  e.ts = ts;
  e.args = std::move(args);
  tb.record(std::move(e));
}

void trace_complete(std::string_view name, std::string_view cat, int pid,
                    int tid, std::int64_t ts, std::int64_t dur,
                    std::vector<std::pair<std::string, std::string>> args) {
  TraceBuffer& tb = TraceBuffer::global();
  if (!tb.enabled()) return;
  TraceEvent e;
  e.phase = TraceEvent::Phase::kComplete;
  e.name = std::string(name);
  e.cat = std::string(cat);
  e.pid = pid;
  e.tid = tid;
  e.ts = ts;
  e.dur = dur;
  e.args = std::move(args);
  tb.record(std::move(e));
}

}  // namespace isex::obs
