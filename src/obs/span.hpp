// Epoch-scoped pipeline tracing.
//
// A Span is one timed stage of the publish pipeline — graph run, plan,
// publish, repl encode/ship/apply — stamped with the epoch it is
// working toward. Because every stage carries the epoch, one edit
// burst can be traced end-to-end: filter the log by epoch and the spans
// line up from `commit_batch()` on the origin to `publish()` on a
// replica.
//
// SpanLog is a BoundedRing (obs/ring.hpp) behind a mutex. Spans record
// on the *control* path (builds, publishes, replication frames — dozens
// per second, not millions), so a short critical section per span is
// cheap; the serve hot path never touches the span log.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/ring.hpp"

namespace navsep::obs {

/// Monotonic nanoseconds for span timestamps (steady_clock, so spans
/// order correctly across threads in one process).
[[nodiscard]] inline std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string name;         ///< stage, e.g. "build.plan", "repl.ship"
  std::uint64_t epoch = 0;  ///< snapshot epoch the stage works toward
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return end_ns >= begin_ns ? end_ns - begin_ns : 0;
  }
};

/// Bounded ring of completed spans, oldest-overwritten; safe to record
/// and read from any thread.
class SpanLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit SpanLog(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity) {}

  void record(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.record(std::move(span));
  }

  /// All retained spans, oldest first.
  [[nodiscard]] std::vector<Span> events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.events();
  }

  /// Retained spans stamped with `epoch`, oldest first.
  [[nodiscard]] std::vector<Span> for_epoch(std::uint64_t epoch) const {
    std::vector<Span> out;
    for (auto& span : events()) {
      if (span.epoch == epoch) out.push_back(std::move(span));
    }
    return out;
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return ring_.capacity();
  }
  [[nodiscard]] std::uint64_t recorded() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.recorded();
  }
  [[nodiscard]] std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.dropped();
  }

 private:
  mutable std::mutex mutex_;
  BoundedRing<Span> ring_;
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
