// obs::Registry — the unified metrics surface of the serving stack.
//
// Every layer of the pipeline keeps counters: the concurrent server's
// shard stats, the build graph's rebuild reports, the snapshot store's
// publish count, the replication wire's frame/byte tallies, the
// workload driver's latency tallies. Before this module each had its
// own `stats()` shape and nothing could sample the system as a whole.
// The registry gives them one home:
//
//   * named Counters (monotonic, wait-free atomic add),
//   * named Gauges (last-written value, wait-free atomic set),
//   * named log2 Histograms (48 power-of-two buckets, wait-free
//     atomic record), plus HistogramView, the same histogram as a plain
//     value: a snapshot copy, or a single-writer tally that a
//     per-session latency histogram keeps and absorb() folds in,
//   * registered samplers: pull hooks that refresh mirror gauges from
//     an existing stats() producer at snapshot time, so legacy counter
//     structs keep working while the registry stays the source of one
//     coherent, samplable view,
//   * a SpanLog (obs/span.hpp) for epoch-scoped pipeline tracing.
//
// Cost model: instrument handles are stable references resolved once
// (one mutex-guarded map probe at registration); the hot path is a
// relaxed atomic RMW per event — safe from any thread, wait-free, and
// absent entirely when a layer has no registry attached (telemetry is
// a nullable pointer everywhere, never a mandatory dependency).
//
// snapshot() produces a point-in-time copy (running samplers first,
// outside the registry lock) and the exporters serialize it:
// to_json() for machines (tools/navsep_stats, navsep_replica --obs),
// to_table() for terminals.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.hpp"

namespace navsep::obs {

/// Monotonic event count. Wait-free; never decreases.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (cache residency, current epoch...).
/// Wait-free; samplers typically set() these from a producer's stats().
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// How many log2 buckets every histogram in the system carries: bucket
/// i holds samples in [2^i, 2^(i+1)) — 48 buckets span 1ns .. ~3.2 days
/// in nanoseconds, or 1 .. 2^48 of anything else.
inline constexpr std::size_t kLog2Buckets = 48;

/// The bucket a value lands in (0 for value == 0).
[[nodiscard]] std::size_t log2_bucket(std::uint64_t value) noexcept;

/// Interpolated quantile over log2 bucket counts: the q-quantile rank
/// is located in its bucket and positioned linearly within the bucket's
/// [2^i, 2^(i+1)) range by its rank among that bucket's samples —
/// instead of reporting the bucket's upper bound, which overstates
/// every quantile that lands just past a boundary by up to 2x. The
/// result is clamped to `max_value` when the true maximum is known
/// (pass 0 when it is not). Returns 0 for an empty histogram.
[[nodiscard]] double log2_interpolated_quantile(const std::uint64_t* counts,
                                                std::size_t n_buckets,
                                                std::uint64_t count,
                                                std::uint64_t max_value,
                                                double q) noexcept;

/// A log2 histogram as a plain value, with derived statistics: a
/// point-in-time copy of a Histogram (view()), or a single-writer tally
/// of its own (a per-session latency histogram, say) that merges with
/// its peers and folds into a Histogram through absorb(). Not
/// thread-safe: one writer at a time.
struct HistogramView {
  std::array<std::uint64_t, kLog2Buckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  /// Count one sample into its log2_bucket.
  void record(std::uint64_t value) noexcept;

  /// Fold `other` in: bucket-by-bucket adds plus the count/sum/max.
  void merge(const HistogramView& other) noexcept;

  [[nodiscard]] double mean() const noexcept {
    return count == 0
               ? 0.0
               : static_cast<double>(sum) / static_cast<double>(count);
  }
  [[nodiscard]] double quantile(double q) const noexcept {
    return log2_interpolated_quantile(buckets.data(), buckets.size(), count,
                                      max, q);
  }
};

/// Concurrent log2 histogram. record() is three relaxed atomic RMWs
/// plus a CAS loop for the max — safe from any thread, no locks.
class Histogram {
 public:
  void record(std::uint64_t value) noexcept;

  /// Fold a single-writer tally in (a per-session latency histogram,
  /// say): bucket-by-bucket adds plus the count/sum/max updates.
  void absorb(const HistogramView& tally) noexcept;

  [[nodiscard]] HistogramView view() const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kLog2Buckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

class Registry;

/// RAII registration token for a sampler: unregisters on destruction.
/// The registry must outlive the handle (producers hold their handle —
/// and usually a shared_ptr to the registry — so destruction order is
/// producer, then registry).
class SamplerHandle {
 public:
  SamplerHandle() = default;
  SamplerHandle(SamplerHandle&& other) noexcept;
  SamplerHandle& operator=(SamplerHandle&& other) noexcept;
  ~SamplerHandle() { reset(); }
  SamplerHandle(const SamplerHandle&) = delete;
  SamplerHandle& operator=(const SamplerHandle&) = delete;

  /// Unregister now (idempotent).
  void reset() noexcept;

  [[nodiscard]] bool attached() const noexcept { return registry_ != nullptr; }

 private:
  friend class Registry;
  SamplerHandle(Registry* registry, std::uint64_t id)
      : registry_(registry), id_(id) {}
  Registry* registry_ = nullptr;
  std::uint64_t id_ = 0;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create by name. The returned reference is stable for the
  /// registry's lifetime — resolve once, then hit the atomic directly.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// A pull hook run at the start of every snapshot(), outside the
  /// registry lock (it may freely call counter()/gauge()/histogram()).
  /// Producers use this to mirror an existing stats() struct into
  /// gauges so one snapshot samples every layer coherently.
  using Sampler = std::function<void()>;
  [[nodiscard]] SamplerHandle add_sampler(Sampler sampler);

  /// The epoch-scoped pipeline trace ring (obs/span.hpp).
  [[nodiscard]] SpanLog& spans() noexcept { return spans_; }
  [[nodiscard]] const SpanLog& spans() const noexcept { return spans_; }

  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramView> histograms;
    std::uint64_t spans_recorded = 0;
    std::uint64_t spans_dropped = 0;

    /// Machine exporter: {"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, sum, max, mean, p50, p90, p99}},
    /// "spans": {recorded, dropped}}.
    [[nodiscard]] std::string to_json() const;

    /// Terminal exporter: aligned name/value rows per section.
    [[nodiscard]] std::string to_table() const;
  };

  /// Run every sampler, then copy all instruments out. The copy itself
  /// holds the registry lock briefly; concurrent add()/record() calls
  /// are never blocked (they are lock-free), so sampling a system under
  /// full traffic is safe and cheap.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  friend class SamplerHandle;
  void remove_sampler(std::uint64_t id) noexcept;

  mutable std::mutex mutex_;
  // unique_ptr values: instrument addresses survive map rehash/rebalance.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::uint64_t, Sampler> samplers_;
  std::uint64_t next_sampler_id_ = 1;
  SpanLog spans_;
};

}  // namespace navsep::obs
