// Small string toolkit used across the library.
//
// Everything here operates on std::string_view and returns owned strings or
// views into the input; no locale dependence (ASCII-only case folding, which
// matches the XML and URI grammars we implement).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace navsep::strings {

/// True if `c` is ASCII whitespace as defined by XML (space, tab, CR, LF).
[[nodiscard]] constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

[[nodiscard]] constexpr bool is_digit(char c) noexcept {
  return c >= '0' && c <= '9';
}

[[nodiscard]] constexpr bool is_alpha(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

[[nodiscard]] constexpr bool is_alnum(char c) noexcept {
  return is_alpha(c) || is_digit(c);
}

[[nodiscard]] constexpr char to_lower(char c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// ASCII lower-casing; non-ASCII bytes pass through unchanged.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Strip leading and trailing XML whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Split on runs of XML whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view s);

/// Join with a separator string.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);
[[nodiscard]] std::string join(const std::vector<std::string_view>& parts,
                               std::string_view sep);

/// Replace every occurrence of `from` (non-empty) with `to`.
[[nodiscard]] std::string replace_all(std::string_view s, std::string_view from,
                                      std::string_view to);

/// Glob-style wildcard match: `*` matches any (possibly empty) run of
/// characters, `?` matches exactly one character; everything else is
/// literal. Used by the pointcut DSL.
[[nodiscard]] bool wildcard_match(std::string_view pattern,
                                  std::string_view text) noexcept;

/// Collapse runs of whitespace to single spaces and trim the ends —
/// the XPath normalize-space() semantics.
[[nodiscard]] std::string normalize_space(std::string_view s);

/// True if `s` consists solely of XML whitespace (or is empty).
[[nodiscard]] bool all_space(std::string_view s) noexcept;

}  // namespace navsep::strings
