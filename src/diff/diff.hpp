// Line-oriented diffing (Myers O(ND)) and change statistics.
//
// The paper's central claim is about *change impact*: how many authored
// artifacts, and how many lines within them, must be touched to change an
// access structure. This module measures exactly that — it diffs two
// versions of a site artifact and aggregates counts across a whole site.
// The replication wire ships those same edits: its DELTA records are
// scripts computed by the integer-sequence core below (myers()).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace navsep::diff {

/// One matched item pair: `a[a_index]` equals `b[b_index]`.
struct Match {
  std::size_t a_index = 0;
  std::size_t b_index = 0;
};

/// Myers' greedy O(ND) shortest edit script over two sequences of item
/// ids (interned lines, or hashes whose matches the caller verifies):
/// the matched pairs, increasing in both indexes. Returns std::nullopt
/// once the script is known to need more than `max_edits` inserts plus
/// deletes. Step d stores the d+1 diagonal endpoints it reached, so the
/// budget bounds the search's memory at O(max_edits²) and its time at
/// O((a.size() + b.size()) · max_edits). Callers strip the common prefix
/// and suffix first (common_ends); this does not.
[[nodiscard]] std::optional<std::vector<Match>> myers(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
    std::size_t max_edits);

/// How many leading items `a` and `b` share, then how many trailing
/// items they share in what the prefix leaves (the two never overlap).
template <typename A, typename B, typename Same>
[[nodiscard]] std::pair<std::size_t, std::size_t> common_ends(const A& a,
                                                              const B& b,
                                                              Same same) {
  const std::size_t shorter = std::min(a.size(), b.size());
  std::size_t prefix = 0;
  while (prefix < shorter && same(a[prefix], b[prefix])) ++prefix;
  std::size_t suffix = 0;
  while (prefix + suffix < shorter &&
         same(a[a.size() - 1 - suffix], b[b.size() - 1 - suffix])) {
    ++suffix;
  }
  return {prefix, suffix};
}

enum class OpKind { Equal, Insert, Delete };

/// One run of consecutive lines with the same fate.
struct Op {
  OpKind kind = OpKind::Equal;
  std::size_t a_start = 0;  // line index in `a` (for Equal/Delete)
  std::size_t b_start = 0;  // line index in `b` (for Equal/Insert)
  std::size_t count = 0;
};

/// Line-level diff statistics.
struct Stats {
  std::size_t lines_added = 0;
  std::size_t lines_deleted = 0;
  std::size_t hunks = 0;         // maximal runs of non-equal ops
  std::size_t bytes_added = 0;
  std::size_t bytes_deleted = 0;

  [[nodiscard]] bool unchanged() const noexcept {
    return lines_added == 0 && lines_deleted == 0;
  }
  [[nodiscard]] std::size_t lines_changed() const noexcept {
    return lines_added + lines_deleted;
  }

  Stats& operator+=(const Stats& o) noexcept;
};

/// Split into lines; the trailing newline does not create an empty line.
[[nodiscard]] std::vector<std::string_view> split_lines(std::string_view text);

/// Myers diff over lines. The returned script transforms `a` into `b`.
/// Past 4096 edits in the region the common prefix and suffix leave, that
/// region is reported as replaced whole: a correct script, not a minimal
/// one.
[[nodiscard]] std::vector<Op> diff_lines(std::string_view a,
                                         std::string_view b);

/// Aggregate statistics of a diff.
[[nodiscard]] Stats stats(std::string_view a, std::string_view b);

/// Render a unified diff (with `context` lines of context) for humans.
[[nodiscard]] std::string unified(std::string_view a, std::string_view b,
                                  std::string_view a_name = "a",
                                  std::string_view b_name = "b",
                                  std::size_t context = 3);

/// Change statistics across two versions of a keyed artifact set
/// (path → content). Artifacts present on only one side count as fully
/// added/deleted.
struct SiteDelta {
  std::size_t files_touched = 0;
  std::size_t files_total = 0;
  Stats line_stats;
  std::vector<std::string> touched_paths;
};

[[nodiscard]] SiteDelta compare_sites(
    const std::vector<std::pair<std::string, std::string>>& before,
    const std::vector<std::pair<std::string, std::string>>& after);

}  // namespace navsep::diff
