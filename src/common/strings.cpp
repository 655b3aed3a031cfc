#include "common/strings.hpp"

namespace navsep::strings {

std::string to_lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(to_lower(c));
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

namespace {
template <typename Range>
std::string join_impl(const Range& parts, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out.append(sep);
    out.append(p);
    first = false;
  }
  return out;
}
}  // namespace

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  return join_impl(parts, sep);
}

std::string join(const std::vector<std::string_view>& parts,
                 std::string_view sep) {
  return join_impl(parts, sep);
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      break;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  return out;
}

bool wildcard_match(std::string_view pattern, std::string_view text) noexcept {
  // Iterative two-pointer matcher with backtracking over the last `*`.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos;
  std::size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::string normalize_space(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool in_ws = true;  // drop leading whitespace
  for (char c : s) {
    if (is_space(c)) {
      if (!in_ws) out.push_back(' ');
      in_ws = true;
    } else {
      out.push_back(c);
      in_ws = false;
    }
  }
  if (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

bool all_space(std::string_view s) noexcept {
  for (char c : s) {
    if (!is_space(c)) return false;
  }
  return true;
}

}  // namespace navsep::strings
