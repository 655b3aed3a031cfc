#include "obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace navsep::obs {

std::size_t log2_bucket(std::uint64_t value) noexcept {
  if (value == 0) return 0;
  return std::min(static_cast<std::size_t>(std::bit_width(value)) - 1,
                  kLog2Buckets - 1);
}

double log2_interpolated_quantile(const std::uint64_t* counts,
                                  std::size_t n_buckets, std::uint64_t count,
                                  std::uint64_t max_value, double q) noexcept {
  if (count == 0 || n_buckets == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The edges are exact, never interpolated. q >= 1 is the maximum
  // sample itself — including 0 when every sample was 0 (every tracked
  // histogram maintains max; interpolating here used to report ~2 for an
  // all-zero population). q <= 0 is the minimum's bucket lower bound:
  // the tightest statement a log2 sketch can make about the smallest
  // sample (0 for bucket 0, 2^i otherwise).
  if (q >= 1.0) return static_cast<double>(max_value);
  if (q <= 0.0) {
    for (std::size_t i = 0; i < n_buckets; ++i) {
      if (counts[i] != 0) {
        return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
      }
    }
    return 0.0;
  }
  const double rank = q * static_cast<double>(count - 1);
  double seen = 0.0;
  for (std::size_t i = 0; i < n_buckets; ++i) {
    const double c = static_cast<double>(counts[i]);
    if (c == 0.0) continue;
    if (seen + c > rank) {
      // The rank-th sample sits in bucket i, covering [2^i, 2^(i+1)).
      // Place it linearly by its position among this bucket's samples
      // (+0.5 centers each sample in its share of the range) instead
      // of reporting the bucket's upper bound.
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
      const double hi = std::ldexp(1.0, static_cast<int>(i) + 1);
      const double frac = (rank - seen + 0.5) / c;
      double v = lo + frac * (hi - lo);
      if (max_value > 0) v = std::min(v, static_cast<double>(max_value));
      return v;
    }
    seen += c;
  }
  // rank == count - 1 exactly at the end: the maximum sample.
  if (max_value > 0) return static_cast<double>(max_value);
  for (std::size_t i = n_buckets; i-- > 0;) {
    if (counts[i] != 0) return std::ldexp(1.0, static_cast<int>(i) + 1);
  }
  return 0.0;
}

void HistogramView::record(std::uint64_t value) noexcept {
  ++buckets[log2_bucket(value)];
  ++count;
  sum += value;
  max = std::max(max, value);
}

void HistogramView::merge(const HistogramView& other) noexcept {
  for (std::size_t i = 0; i < kLog2Buckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

void Histogram::record(std::uint64_t value) noexcept {
  buckets_[log2_bucket(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void Histogram::absorb(const HistogramView& tally) noexcept {
  for (std::size_t i = 0; i < kLog2Buckets; ++i) {
    if (tally.buckets[i] == 0) continue;
    buckets_[i].fetch_add(tally.buckets[i], std::memory_order_relaxed);
  }
  count_.fetch_add(tally.count, std::memory_order_relaxed);
  sum_.fetch_add(tally.sum, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (tally.max > seen &&
         !max_.compare_exchange_weak(seen, tally.max,
                                     std::memory_order_relaxed)) {
  }
}

HistogramView Histogram::view() const noexcept {
  HistogramView out;
  for (std::size_t i = 0; i < kLog2Buckets; ++i) {
    out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  out.max = max_.load(std::memory_order_relaxed);
  return out;
}

SamplerHandle::SamplerHandle(SamplerHandle&& other) noexcept
    : registry_(other.registry_), id_(other.id_) {
  other.registry_ = nullptr;
  other.id_ = 0;
}

SamplerHandle& SamplerHandle::operator=(SamplerHandle&& other) noexcept {
  if (this != &other) {
    reset();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

void SamplerHandle::reset() noexcept {
  if (registry_ != nullptr) {
    registry_->remove_sampler(id_);
    registry_ = nullptr;
    id_ = 0;
  }
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

SamplerHandle Registry::add_sampler(Sampler sampler) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_sampler_id_++;
  samplers_.emplace(id, std::move(sampler));
  return SamplerHandle(this, id);
}

void Registry::remove_sampler(std::uint64_t id) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  samplers_.erase(id);
}

Registry::Snapshot Registry::snapshot() const {
  // Copy the samplers out, then run them unlocked: a sampler calls
  // back into counter()/gauge() to publish its producer's stats, and
  // that re-entry must not deadlock.
  std::vector<Sampler> samplers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    samplers.reserve(samplers_.size());
    for (const auto& [id, sampler] : samplers_) samplers.push_back(sampler);
  }
  for (const auto& sampler : samplers) sampler();

  Snapshot out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, c] : counters_) out.counters[name] = c->value();
    for (const auto& [name, g] : gauges_) out.gauges[name] = g->value();
    for (const auto& [name, h] : histograms_) out.histograms[name] = h->view();
  }
  out.spans_recorded = spans_.recorded();
  out.spans_dropped = spans_.dropped();
  return out;
}

namespace {

void append_json_string(std::ostringstream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(static_cast<unsigned char>(c)) << std::dec
             << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void append_json_double(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  std::ostringstream tmp;
  tmp << std::fixed << std::setprecision(1) << v;
  os << tmp.str();
}

}  // namespace

std::string Registry::Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "\n    " : ",\n    ");
    append_json_string(os, name);
    os << ": " << value;
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    os << (first ? "\n    " : ",\n    ");
    append_json_string(os, name);
    os << ": " << value;
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, view] : histograms) {
    os << (first ? "\n    " : ",\n    ");
    append_json_string(os, name);
    os << ": {\"count\": " << view.count << ", \"sum\": " << view.sum
       << ", \"max\": " << view.max << ", \"mean\": ";
    append_json_double(os, view.mean());
    os << ", \"p50\": ";
    append_json_double(os, view.quantile(0.5));
    os << ", \"p90\": ";
    append_json_double(os, view.quantile(0.9));
    os << ", \"p99\": ";
    append_json_double(os, view.quantile(0.99));
    os << "}";
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"spans\": {\"recorded\": " << spans_recorded
     << ", \"dropped\": " << spans_dropped << "}\n}\n";
  return os.str();
}

std::string Registry::Snapshot::to_table() const {
  std::size_t width = 8;
  for (const auto& [name, value] : counters) width = std::max(width, name.size());
  for (const auto& [name, value] : gauges) width = std::max(width, name.size());
  for (const auto& [name, view] : histograms) {
    width = std::max(width, name.size());
  }

  std::ostringstream os;
  if (!counters.empty()) {
    os << "counters\n";
    for (const auto& [name, value] : counters) {
      os << "  " << std::left << std::setw(static_cast<int>(width)) << name
         << "  " << value << "\n";
    }
  }
  if (!gauges.empty()) {
    os << "gauges\n";
    for (const auto& [name, value] : gauges) {
      os << "  " << std::left << std::setw(static_cast<int>(width)) << name
         << "  " << value << "\n";
    }
  }
  if (!histograms.empty()) {
    os << "histograms (count / mean / p50 / p99 / max)\n";
    for (const auto& [name, view] : histograms) {
      os << "  " << std::left << std::setw(static_cast<int>(width)) << name
         << "  " << view.count << " / " << std::fixed << std::setprecision(1)
         << view.mean() << " / " << view.quantile(0.5) << " / "
         << view.quantile(0.99) << " / " << view.max << "\n";
    }
  }
  os << "spans: " << spans_recorded << " recorded, " << spans_dropped
     << " dropped\n";
  return os.str();
}

}  // namespace navsep::obs
