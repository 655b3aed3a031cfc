// Sample containers and the result line of the navbench program.
//
// Edits are few (hundreds per run), so their latencies are kept whole
// and ranked exactly. Reads are millions, so each reader folds its
// latencies into log-linear histograms (128 sub-buckets per power of
// two: under 1% quantization), one per statistics window and one per
// cache layer.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace navbench {

/// Exact quantile of `samples` (linear interpolation between ranks, the
/// same rule as numpy's default). 0 for an empty set.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

/// Log-linear latency histogram over nanoseconds.
class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 7;  // 128 sub-buckets per octave
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kOctaves = 40;  // up to ~18 minutes

  void record(std::uint64_t ns) noexcept {
    ++counts_[index(ns)];
    ++count_;
  }

  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
  }

  /// The q-quantile in nanoseconds, interpolated linearly inside the
  /// bucket that holds its rank.
  [[nodiscard]] double quantile_ns(double q) const noexcept {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_ - 1);
    double seen = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      const double in_bucket = static_cast<double>(counts_[i]);
      if (seen + in_bucket > rank) {
        const auto [lo, width] = bounds(i);
        return lo + width * ((rank - seen + 0.5) / in_bucket);
      }
      seen += in_bucket;
    }
    const auto [lo, width] = bounds(counts_.size() - 1);
    return lo + width;
  }

 private:
  static std::size_t index(std::uint64_t ns) noexcept {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const unsigned octave = static_cast<unsigned>(std::bit_width(ns)) - kSubBits;
    const std::size_t sub = static_cast<std::size_t>(ns >> (octave - 1)) - kSub;
    return std::min(octave * kSub + sub, kOctaves * kSub - 1);
  }

  /// Lower bound and width of bucket `i` in nanoseconds.
  static std::pair<double, double> bounds(std::size_t i) noexcept {
    if (i < kSub) return {static_cast<double>(i), 1.0};
    const std::size_t octave = i / kSub;
    const std::size_t sub = i % kSub;
    const double width = static_cast<double>(std::uint64_t{1} << (octave - 1));
    return {static_cast<double>(kSub + sub) * width, width};
  }

  std::array<std::uint64_t, kOctaves * kSub> counts_{};
  std::uint64_t count_ = 0;
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest round-trip text of `v` (every digit the double carries).
inline std::string number(double v) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), v);
  return std::string(buffer, result.ptr);
}

/// The benchmark's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
inline std::string result_line(bool correct, std::uint64_t attempted,
                               std::uint64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace navbench
