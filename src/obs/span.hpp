// Epoch-scoped pipeline tracing.
//
// A Span is one timed stage of the publish pipeline — graph run, plan,
// publish, repl encode/ship/apply — stamped with the epoch it is
// working toward. Because every stage carries the epoch, one edit
// burst can be traced end-to-end: filter the log by epoch and the spans
// line up from `commit_batch()` on the origin to `publish()` on a
// replica.
//
// SpanLog is a bounded mutex-guarded ring: recording is O(1), the
// oldest spans are overwritten when full, and `dropped()` says how
// many fell off. Spans record on the *control* path (builds,
// publishes, replication frames — dozens per second, not millions),
// so a short critical section per span is cheap; the serve hot path
// never touches the span log.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace navsep::obs {

/// Monotonic nanoseconds for span timestamps (steady_clock, so spans
/// order correctly across threads in one process).
[[nodiscard]] inline std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A compact identifier for the recording thread — not the OS tid,
/// just a stable small hash so spans from the same thread group
/// together in a dump.
[[nodiscard]] inline std::uint32_t thread_lane() noexcept {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

struct Span {
  std::string name;         ///< stage, e.g. "build.plan", "repl.ship"
  std::uint64_t epoch = 0;  ///< snapshot epoch the stage works toward
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t lane = 0;  ///< thread_lane() of the recording thread

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return end_ns >= begin_ns ? end_ns - begin_ns : 0;
  }
};

/// Bounded ring of completed spans, oldest-overwritten.
class SpanLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit SpanLog(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void record(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(span));
    } else {
      ring_[head_] = std::move(span);
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
    ++recorded_;
  }

  /// All retained spans, oldest first.
  [[nodiscard]] std::vector<Span> events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  /// Retained spans stamped with `epoch`, oldest first.
  [[nodiscard]] std::vector<Span> for_epoch(std::uint64_t epoch) const {
    std::vector<Span> out;
    for (auto& span : events()) {
      if (span.epoch == epoch) out.push_back(std::move(span));
    }
    return out;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t recorded() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return recorded_;
  }
  [[nodiscard]] std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest element once the ring is full
  std::vector<Span> ring_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// RAII span: stamps begin on construction, records on destruction.
/// A null log makes it a no-op — call sites don't branch on whether
/// telemetry is attached.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t epoch)
      : log_(log) {
    if (log_ != nullptr) {
      span_.name = std::move(name);
      span_.epoch = epoch;
      span_.lane = thread_lane();
      span_.begin_ns = monotonic_ns();
    }
  }
  ~ScopedSpan() {
    if (log_ != nullptr) {
      span_.end_ns = monotonic_ns();
      log_->record(std::move(span_));
    }
  }

  /// Re-stamp the epoch mid-span — for stages that only learn which
  /// epoch they worked toward from their own result (a replica decoding
  /// a frame, say).
  void set_epoch(std::uint64_t epoch) noexcept { span_.epoch = epoch; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
};

}  // namespace navsep::obs
