// TextCursor: a position-tracking scanner shared by the library's lexers
// (XML, XPath, XPointer, pointcut DSL). It owns nothing; the caller
// guarantees the underlying buffer outlives the cursor.
#pragma once

#include <string_view>

#include "common/error.hpp"

namespace navsep {

class TextCursor {
 public:
  explicit TextCursor(std::string_view text) noexcept : text_(text) {}

  [[nodiscard]] bool eof() const noexcept { return pos_.offset >= text_.size(); }
  [[nodiscard]] std::size_t offset() const noexcept { return pos_.offset; }
  [[nodiscard]] Position position() const noexcept { return pos_; }
  [[nodiscard]] std::string_view input() const noexcept { return text_; }

  /// Current character, or '\0' at end of input.
  [[nodiscard]] char peek() const noexcept {
    return eof() ? '\0' : text_[pos_.offset];
  }

  /// Character `n` ahead of the current one, or '\0' past the end.
  [[nodiscard]] char peek(std::size_t n) const noexcept {
    return pos_.offset + n >= text_.size() ? '\0' : text_[pos_.offset + n];
  }

  /// Remaining unconsumed input.
  [[nodiscard]] std::string_view rest() const noexcept {
    return text_.substr(pos_.offset);
  }

  /// Consume and return the current character. Throws at end of input.
  char next() {
    if (eof()) throw ParseError("unexpected end of input", pos_);
    char c = text_[pos_.offset];
    advance();
    return c;
  }

  /// Advance by one character, maintaining line/column.
  void advance() noexcept {
    if (eof()) return;
    if (text_[pos_.offset] == '\n') {
      ++pos_.line;
      pos_.column = 1;
    } else {
      ++pos_.column;
    }
    ++pos_.offset;
  }

  /// Advance by `n` characters.
  void advance(std::size_t n) noexcept {
    for (std::size_t i = 0; i < n && !eof(); ++i) advance();
  }

  /// If the remaining input starts with `s`, consume it and return true.
  bool consume(std::string_view s) noexcept {
    if (rest().substr(0, s.size()) != s) return false;
    advance(s.size());
    return true;
  }

  /// Consume the single character `c` if it is next; return whether it was.
  bool consume(char c) noexcept {
    if (peek() != c) return false;
    advance();
    return true;
  }

  /// Require `s` next, else throw a ParseError mentioning `what`.
  void expect(std::string_view s, std::string_view what) {
    if (!consume(s)) {
      throw ParseError("expected " + std::string(what), pos_);
    }
  }

  /// Skip XML whitespace; returns true if anything was skipped.
  bool skip_ws() noexcept {
    bool any = false;
    while (!eof()) {
      char c = peek();
      if (c != ' ' && c != '\t' && c != '\r' && c != '\n') break;
      advance();
      any = true;
    }
    return any;
  }

  /// Consume characters while `pred(c)` holds; returns the consumed slice.
  template <typename Pred>
  std::string_view take_while(Pred pred) noexcept {
    std::size_t start = pos_.offset;
    while (!eof() && pred(peek())) advance();
    return text_.substr(start, pos_.offset - start);
  }

  /// Consume up to (not including) the first occurrence of `delim`;
  /// returns the consumed slice. Throws if `delim` never occurs.
  std::string_view take_until(std::string_view delim) {
    std::size_t hit = text_.find(delim, pos_.offset);
    if (hit == std::string_view::npos) {
      throw ParseError("unterminated construct, expected '" +
                           std::string(delim) + "'",
                       pos_);
    }
    std::string_view out = text_.substr(pos_.offset, hit - pos_.offset);
    advance(out.size());
    return out;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(message, pos_);
  }

 private:
  std::string_view text_;
  Position pos_;
};

}  // namespace navsep
