#include "diff/diff.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <unordered_map>

namespace navsep::diff {

namespace {

/// diff_lines' edit budget past the common ends.
constexpr std::size_t kTraceLimit = 4096;

}  // namespace

Stats& Stats::operator+=(const Stats& o) noexcept {
  lines_added += o.lines_added;
  lines_deleted += o.lines_deleted;
  hunks += o.hunks;
  bytes_added += o.bytes_added;
  bytes_deleted += o.bytes_deleted;
  return *this;
}

std::vector<std::string_view> split_lines(std::string_view text) {
  if (text.empty()) return {};  // data() may be null: no memchr over it
  // Count first, so the vector is allocated once: a replica splits every
  // scripted artifact's base, links.xml included. (memchr is several
  // times faster than std::count here.)
  std::size_t lines = 1;
  for (const char* at = text.data(), *end = at + text.size();
       (at = static_cast<const char*>(std::memchr(at, '\n', end - at))) !=
       nullptr;
       ++at) {
    ++lines;
  }
  std::vector<std::string_view> out;
  out.reserve(lines);
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::optional<std::vector<Match>> myers(std::span<const std::uint64_t> a,
                                        std::span<const std::uint64_t> b,
                                        std::size_t max_edits) {
  if (a.empty() || b.empty()) {
    if (a.size() + b.size() > max_edits) return std::nullopt;
    return std::vector<Match>{};
  }
  // Diagonal endpoints are stored as 32-bit positions; longer inputs
  // take the budget's way out.
  using Pos = std::int32_t;
  constexpr std::size_t kMaxItems = std::numeric_limits<Pos>::max() / 2;
  if (a.size() > kMaxItems || b.size() > kMaxItems) return std::nullopt;
  const Pos n = static_cast<Pos>(a.size());
  const Pos m = static_cast<Pos>(b.size());
  const Pos max = static_cast<Pos>(
      std::min<std::size_t>(max_edits, a.size() + b.size()));

  // Row d holds the furthest x reached on diagonals k = -d, -d+2, …, d
  // (at index (k + d) / 2); it starts at d(d+1)/2 in one flat vector.
  std::vector<Pos> trace;
  const auto row = [](Pos d) {
    return static_cast<std::size_t>(d) * static_cast<std::size_t>(d + 1) / 2;
  };
  trace.reserve(row(std::min<Pos>(max, 31) + 1));  // small edits: one block
  const auto at = [&](Pos d, Pos k) -> Pos& {
    return trace[row(d) + static_cast<std::size_t>((k + d) / 2)];
  };
  // The step-d move onto diagonal k comes down from k + 1 or right from
  // k - 1; the forward search and the backtrack must choose alike.
  const auto from_above = [&](Pos d, Pos k) {
    return k == -d || (k != d && at(d - 1, k - 1) < at(d - 1, k + 1));
  };

  Pos found = -1;
  for (Pos d = 0; d <= max && found < 0; ++d) {
    trace.resize(row(d + 1));
    for (Pos k = -d; k <= d; k += 2) {
      Pos x = d == 0              ? 0
              : from_above(d, k) ? at(d - 1, k + 1)
                                 : at(d - 1, k - 1) + 1;
      Pos y = x - k;
      while (x < n && y < m && a[static_cast<std::size_t>(x)] ==
                                   b[static_cast<std::size_t>(y)]) {
        ++x;
        ++y;
      }
      at(d, k) = x;
      if (x >= n && y >= m) {
        found = d;
        break;
      }
    }
  }
  if (found < 0) return std::nullopt;

  // Backtrack from (n, m) to (0, 0), collecting matches in reverse.
  std::vector<Match> out;
  out.reserve(static_cast<std::size_t>(std::min(n, m)));
  const auto snake_back = [&out](Pos& x, Pos& y, Pos to_x, Pos to_y) {
    while (x > to_x && y > to_y) {
      --x;
      --y;
      out.push_back(
          Match{static_cast<std::size_t>(x), static_cast<std::size_t>(y)});
    }
  };
  Pos x = n;
  Pos y = m;
  for (Pos d = found; d > 0; --d) {
    const Pos prev_k = from_above(d, x - y) ? x - y + 1 : x - y - 1;
    const Pos prev_x = at(d - 1, prev_k);
    snake_back(x, y, prev_x, prev_x - prev_k);
    x = prev_x;
    y = prev_x - prev_k;
  }
  snake_back(x, y, 0, 0);
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<Op> diff_lines(std::string_view a, std::string_view b) {
  const std::vector<std::string_view> la = split_lines(a);
  const std::vector<std::string_view> lb = split_lines(b);
  const auto [prefix, suffix] = common_ends(la, lb, std::equal_to<>());

  // Intern the lines between the common ends: equal lines share an id.
  std::unordered_map<std::string_view, std::uint64_t> ids;
  ids.reserve(la.size() + lb.size() - 2 * (prefix + suffix));
  const auto intern = [&](const std::vector<std::string_view>& lines) {
    std::vector<std::uint64_t> out;
    out.reserve(lines.size() - prefix - suffix);
    for (std::size_t i = prefix; i + suffix < lines.size(); ++i) {
      out.push_back(ids.emplace(lines[i], ids.size()).first->second);
    }
    return out;
  };
  const std::vector<std::uint64_t> ia = intern(la);
  const std::vector<std::uint64_t> ib = intern(lb);

  // A line can match at most as often as it occurs on the rarer side, so
  // the edit distance is at least ia + ib - 2 * (those minima): when that
  // alone exceeds the budget, the search would fail and is skipped.
  std::vector<std::size_t> unmatched_in_a(ids.size(), 0);
  for (const std::uint64_t id : ia) ++unmatched_in_a[id];
  std::size_t matchable = 0;
  for (const std::uint64_t id : ib) {
    if (unmatched_in_a[id] > 0) {
      --unmatched_in_a[id];
      ++matchable;
    }
  }
  const bool within_budget =
      ia.size() + ib.size() - 2 * matchable <= kTraceLimit;

  std::vector<Match> matched;
  for (std::size_t i = 0; i < prefix; ++i) matched.push_back(Match{i, i});
  for (const Match& match :
       (within_budget ? myers(ia, ib, kTraceLimit) : std::nullopt)
           .value_or(std::vector<Match>{})) {
    matched.push_back(
        Match{prefix + match.a_index, prefix + match.b_index});
  }
  for (std::size_t i = suffix; i > 0; --i) {
    matched.push_back(Match{la.size() - i, lb.size() - i});
  }

  std::vector<Op> ops;
  auto push = [&ops](OpKind kind, std::size_t a_start, std::size_t b_start,
                     std::size_t count) {
    if (count == 0) return;
    if (!ops.empty() && ops.back().kind == kind &&
        ops.back().a_start + ops.back().count == a_start &&
        ops.back().b_start + ops.back().count == b_start) {
      ops.back().count += count;
      return;
    }
    ops.push_back(Op{kind, a_start, b_start, count});
  };

  std::size_t ai = 0, bi = 0;
  for (auto [ma, mb] : matched) {
    push(OpKind::Delete, ai, bi, ma - ai);
    ai = ma;
    push(OpKind::Insert, ai, bi, mb - bi);
    bi = mb;
    push(OpKind::Equal, ai, bi, 1);
    ++ai;
    ++bi;
  }
  push(OpKind::Delete, ai, bi, la.size() - ai);
  ai = la.size();
  push(OpKind::Insert, ai, bi, lb.size() - bi);
  return ops;
}

Stats stats(std::string_view a, std::string_view b) {
  std::vector<std::string_view> la = split_lines(a);
  std::vector<std::string_view> lb = split_lines(b);
  Stats out;
  bool in_hunk = false;
  for (const Op& op : diff_lines(a, b)) {
    switch (op.kind) {
      case OpKind::Equal:
        in_hunk = false;
        break;
      case OpKind::Insert:
        out.lines_added += op.count;
        for (std::size_t i = 0; i < op.count; ++i) {
          out.bytes_added += lb[op.b_start + i].size() + 1;
        }
        if (!in_hunk) ++out.hunks;
        in_hunk = true;
        break;
      case OpKind::Delete:
        out.lines_deleted += op.count;
        for (std::size_t i = 0; i < op.count; ++i) {
          out.bytes_deleted += la[op.a_start + i].size() + 1;
        }
        if (!in_hunk) ++out.hunks;
        in_hunk = true;
        break;
    }
  }
  return out;
}

std::string unified(std::string_view a, std::string_view b,
                    std::string_view a_name, std::string_view b_name,
                    std::size_t context) {
  std::vector<std::string_view> la = split_lines(a);
  std::vector<std::string_view> lb = split_lines(b);
  std::vector<Op> ops = diff_lines(a, b);

  std::string out;
  out += "--- " + std::string(a_name) + "\n";
  out += "+++ " + std::string(b_name) + "\n";

  // Group ops into hunks with `context` lines of surrounding equality.
  struct Line {
    char tag;
    std::string_view text;
    std::size_t a_line, b_line;
  };
  std::vector<Line> flat;
  for (const Op& op : ops) {
    for (std::size_t i = 0; i < op.count; ++i) {
      switch (op.kind) {
        case OpKind::Equal:
          flat.push_back(Line{' ', la[op.a_start + i], op.a_start + i,
                              op.b_start + i});
          break;
        case OpKind::Delete:
          flat.push_back(
              Line{'-', la[op.a_start + i], op.a_start + i, op.b_start});
          break;
        case OpKind::Insert:
          flat.push_back(
              Line{'+', lb[op.b_start + i], op.a_start, op.b_start + i});
          break;
      }
    }
  }

  std::size_t i = 0;
  while (i < flat.size()) {
    if (flat[i].tag == ' ') {
      ++i;
      continue;
    }
    // Hunk: back up `context`, run forward until more than 2 × `context`
    // equals separate us from the next change, then keep `context` of
    // the equals that end the hunk.
    std::size_t start = i >= context ? i - context : 0;
    while (start > 0 && flat[start - 1].tag != ' ') --start;
    std::size_t end = i;
    std::size_t equal_run = 0;  // equals at the end of [i, end)
    while (end < flat.size()) {
      if (flat[end].tag != ' ') {
        equal_run = 0;
      } else if (equal_run == context * 2) {
        break;
      } else {
        ++equal_run;
      }
      ++end;
    }
    if (equal_run > context) end -= equal_run - context;

    std::size_t a_first = flat[start].a_line;
    std::size_t b_first = flat[start].b_line;
    std::size_t a_count = 0, b_count = 0;
    for (std::size_t j = start; j < end; ++j) {
      if (flat[j].tag != '+') ++a_count;
      if (flat[j].tag != '-') ++b_count;
    }
    out += "@@ -" + std::to_string(a_first + 1) + "," +
           std::to_string(a_count) + " +" + std::to_string(b_first + 1) +
           "," + std::to_string(b_count) + " @@\n";
    for (std::size_t j = start; j < end; ++j) {
      out += flat[j].tag;
      out += std::string(flat[j].text);
      out += '\n';
    }
    i = end;
  }
  return out;
}

SiteDelta compare_sites(
    const std::vector<std::pair<std::string, std::string>>& before,
    const std::vector<std::pair<std::string, std::string>>& after) {
  SiteDelta out;
  std::map<std::string_view, const std::string*> b_map, a_map;
  for (const auto& [path, content] : before) b_map.emplace(path, &content);
  for (const auto& [path, content] : after) a_map.emplace(path, &content);

  std::map<std::string_view, int> all_paths;
  for (const auto& [p, _] : b_map) all_paths.emplace(p, 0);
  for (const auto& [p, _] : a_map) all_paths.emplace(p, 0);

  out.files_total = all_paths.size();
  for (const auto& [path, _] : all_paths) {
    auto bit = b_map.find(path);
    auto ait = a_map.find(path);
    std::string_view old_content =
        bit == b_map.end() ? std::string_view() : *bit->second;
    std::string_view new_content =
        ait == a_map.end() ? std::string_view() : *ait->second;
    Stats s = stats(old_content, new_content);
    if (!s.unchanged()) {
      ++out.files_touched;
      out.touched_paths.emplace_back(path);
      out.line_stats += s;
    }
  }
  return out;
}

}  // namespace navsep::diff
