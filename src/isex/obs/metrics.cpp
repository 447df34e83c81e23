#include "isex/obs/metrics.hpp"

#include <algorithm>
#include <climits>
#include <ostream>

namespace isex::obs {

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram() : num_slots_(kPow2Buckets) {
  slots_ = std::make_unique<std::atomic<std::uint64_t>[]>(num_slots_);
  for (std::size_t i = 0; i < num_slots_; ++i) slots_[i].store(0);
}

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), num_slots_(bounds_.size() + 1) {
  slots_ = std::make_unique<std::atomic<std::uint64_t>[]>(num_slots_);
  for (std::size_t i = 0; i < num_slots_; ++i) slots_[i].store(0);
}

void Histogram::record(std::int64_t value) {
  const std::int64_t v = value < 0 ? 0 : value;
  std::size_t slot;
  if (bounds_.empty()) {
    slot = static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(v)));
  } else {
    slot = static_cast<std::size_t>(
        std::upper_bound(bounds_.begin(), bounds_.end(), v - 1) -
        bounds_.begin());
  }
  slots_[slot].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  // min/max via CAS loops; contention is negligible at metric rates.
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::vector<Histogram::Bucket> Histogram::buckets() const {
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < num_slots_; ++i) {
    const std::uint64_t c = slots_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    std::int64_t ub;
    if (bounds_.empty()) {
      // Slot i counts values with bit_width == i: upper bound 2^i - 1.
      ub = i >= 63 ? INT64_MAX : (std::int64_t{1} << i) - 1;
    } else {
      ub = i < bounds_.size() ? bounds_[i] : INT64_MAX;
    }
    out.push_back(Bucket{ub, c});
  }
  return out;
}

void Histogram::reset() {
  for (std::size_t i = 0; i < num_slots_; ++i)
    slots_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(INT64_MIN, std::memory_order_relaxed);
}

// --- Registry ----------------------------------------------------------------

Registry& Registry::global() {
  static Registry* r = new Registry;  // leaked: outlives static destructors
  return *r;
}

Counter& Registry::counter(std::string_view name) {
  std::scoped_lock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::scoped_lock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::scoped_lock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<std::int64_t> bounds) {
  std::scoped_lock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  return *it->second;
}

void Registry::reset() {
  std::scoped_lock lock(mu_);
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, h] : histograms_) h->reset();
}

Registry::Snapshot Registry::snapshot() const {
  std::scoped_lock lock(mu_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->get();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->get();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = hs.count ? h->min() : 0;
    hs.max = hs.count ? h->max() : 0;
    hs.buckets = h->buckets();
    s.histograms[name] = std::move(hs);
  }
  return s;
}

double histogram_quantile(const Registry::HistogramSnapshot& h, double q) {
  if (h.count == 0 || h.buckets.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(h.count);
  std::uint64_t cum = 0;
  std::int64_t prev_ub = -1;  // exclusive lower edge of the current bucket
  for (const Histogram::Bucket& b : h.buckets) {
    const std::uint64_t next = cum + b.count;
    if (static_cast<double>(next) >= target) {
      // Interpolate within [prev_ub+1, upper_bound]; the overflow bucket has
      // no finite width, so fall back to the recorded max.
      const double lo = static_cast<double>(prev_ub) + 1.0;
      const double hi = b.upper_bound == INT64_MAX
                            ? static_cast<double>(h.max)
                            : static_cast<double>(b.upper_bound);
      const double frac =
          b.count == 0 ? 1.0
                       : (target - static_cast<double>(cum)) /
                             static_cast<double>(b.count);
      double v = lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
      v = std::min(v, static_cast<double>(h.max));
      v = std::max(v, static_cast<double>(h.min));
      return v;
    }
    cum = next;
    prev_ub = b.upper_bound;
  }
  return static_cast<double>(h.max);
}

void Registry::write_json(util::JsonWriter& w) const {
  const Snapshot s = snapshot();
  w.begin_object().key("counters").begin_object();
  for (const auto& [name, v] : s.counters) w.key(name).integer(v);
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, v] : s.gauges) w.key(name).number(v);
  w.end_object().key("histograms").begin_object();
  for (const auto& [name, h] : s.histograms) {
    w.key(name).begin_object().key("count").integer(h.count);
    w.key("sum").integer(h.sum).key("min").integer(h.min);
    w.key("max").integer(h.max).key("buckets").begin_array();
    for (const Histogram::Bucket& b : h.buckets)
      w.begin_object().key("le").integer(b.upper_bound).key("count").integer(
          b.count).end_object();
    w.end_array().end_object();
  }
  w.end_object().end_object();
}

void Registry::write_csv(std::ostream& out) const {
  const Snapshot s = snapshot();
  out << "kind,name,stat,value\n";
  for (const auto& [name, v] : s.counters)
    out << "counter," << name << ",value," << v << '\n';
  for (const auto& [name, v] : s.gauges)
    out << "gauge," << name << ",value," << v << '\n';
  for (const auto& [name, h] : s.histograms) {
    out << "histogram," << name << ",count," << h.count << '\n';
    out << "histogram," << name << ",sum," << h.sum << '\n';
    out << "histogram," << name << ",min," << h.min << '\n';
    out << "histogram," << name << ",max," << h.max << '\n';
  }
}

}  // namespace isex::obs
