// The one bounded ring behind obs/: recording is O(1), the oldest
// element is overwritten when the ring is full, and `dropped()` says
// how many fell off.
//
// The ring takes no lock. A workload session's TraceRing
// (obs/trace.hpp) has one writer, its session thread, and is read only
// after that thread joins. SpanLog (obs/span.hpp) puts its ring behind
// a mutex, because spans record from several threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace navsep::obs {

template <typename T>
class BoundedRing {
 public:
  /// A capacity of 0 clamps to 1.
  explicit BoundedRing(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void record(T value) {
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(value));
    } else {
      ring_[head_] = std::move(value);
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
    ++recorded_;
  }

  /// Retained elements, oldest first.
  [[nodiscard]] std::vector<T> events() const {
    std::vector<T> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest element once the ring is full
  std::vector<T> ring_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace navsep::obs
