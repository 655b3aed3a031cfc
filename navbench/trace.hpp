// The traced run's span store: the benchmark's own spans around each
// layer call plus the program's epoch-stamped spans it imports, grouped
// into traces (one per edit, per sampled request, per replay). Spans are
// kept in memory, written out once at exit, and folded into per-layer
// self time: a span's duration minus the part of it its children cover.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "metrics.hpp"

namespace navbench {

struct SpanRecord {
  std::uint64_t trace = 0;  ///< one id per edit / sampled request / replay
  std::string name;         ///< layer-qualified, e.g. "nav.mutation"
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  ///< index into the owning vector, -1 for a root
};

/// Spans recorded by one thread. Threads never share a store; the main
/// thread merges them after joining.
class SpanStore {
 public:
  /// Record a span and return its index (for children's `parent`).
  int add(std::uint64_t trace, std::string name, std::uint64_t begin_ns,
          std::uint64_t end_ns, int parent = -1) {
    spans_.push_back(
        SpanRecord{trace, std::move(name), begin_ns, end_ns, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Move `other`'s spans in, re-basing their parent indices.
  void absorb(SpanStore&& other) {
    const int offset = static_cast<int>(spans_.size());
    for (SpanRecord& span : other.spans_) {
      if (span.parent >= 0) span.parent += offset;
      spans_.push_back(std::move(span));
    }
    other.spans_.clear();
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

  /// Self time of every span: its duration minus the union of its
  /// children's intervals (clipped to the span).
  [[nodiscard]] std::vector<double> self_ns() const {
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        spans_.size());
    for (const SpanRecord& span : spans_) {
      if (span.parent >= 0) {
        kids[static_cast<std::size_t>(span.parent)].emplace_back(span.begin_ns,
                                                                 span.end_ns);
      }
    }
    std::vector<double> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& span = spans_[i];
      auto& intervals = kids[i];
      std::sort(intervals.begin(), intervals.end());
      std::uint64_t covered = 0;
      std::uint64_t cursor = span.begin_ns;
      for (auto [b, e] : intervals) {
        b = std::max(b, cursor);
        e = std::min(e, span.end_ns);
        if (e > b) {
          covered += e - b;
          cursor = e;
        }
      }
      const std::uint64_t duration =
          span.end_ns > span.begin_ns ? span.end_ns - span.begin_ns : 0;
      out[i] = static_cast<double>(duration - std::min(covered, duration));
    }
    return out;
  }

  /// Write every span as one JSON document; false when `path` cannot be
  /// opened.
  bool write_json(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fputs("{\"spans\": [\n", file);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(file,
                   "  {\"id\": %zu, \"trace\": %llu, \"name\": \"%s\", "
                   "\"begin_ns\": %llu, \"end_ns\": %llu, \"parent\": %d}%s\n",
                   i, static_cast<unsigned long long>(s.trace), s.name.c_str(),
                   static_cast<unsigned long long>(s.begin_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", file);
    return std::fclose(file) == 0;
  }

  /// Per span name: count, summed self time and median self time, as
  /// a terminal table.
  [[nodiscard]] std::string self_time_table() const {
    const std::vector<double> self = self_ns();
    std::map<std::string, std::vector<double>> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name].push_back(self[i] / 1e6);
    }
    std::string out = "per-layer self time (ms)\n";
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %8s %12s %10s\n", "span",
                  "count", "total", "p50");
    out += line;
    for (const auto& [name, values] : by_name) {
      double total = 0;
      for (double v : values) total += v;
      std::snprintf(line, sizeof(line), "  %-28s %8zu %12.3f %10.4f\n",
                    name.c_str(), values.size(), total,
                    quantile(values, 0.5));
      out += line;
    }
    return out;
  }

 private:
  std::vector<SpanRecord> spans_;
};

}  // namespace navbench
