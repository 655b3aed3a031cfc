// Error hierarchy shared by every navsep module.
//
// All recoverable failures in the library are reported as exceptions derived
// from navsep::Error. Parsers (XML, XPath, pointcut DSL, URI) throw
// ParseError carrying a 1-based line/column position; semantic failures
// (dangling XLink labels, unknown node classes, pointcut type errors) throw
// SemanticError. Callers that prefer status-style handling can use the
// try_* wrappers offered by individual modules.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace navsep {

/// Source position inside a parsed text. Lines and columns are 1-based;
/// `offset` is the 0-based byte offset from the start of the input.
struct Position {
  std::size_t line = 1;
  std::size_t column = 1;
  std::size_t offset = 0;

  [[nodiscard]] std::string to_string() const {
    return std::to_string(line) + ":" + std::to_string(column);
  }

  friend bool operator==(const Position&, const Position&) = default;
};

/// Root of the navsep exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A syntactic failure while parsing some textual input.
class ParseError : public Error {
 public:
  ParseError(const std::string& what, Position pos)
      : Error(what + " at " + pos.to_string()), pos_(pos) {}

  [[nodiscard]] Position position() const noexcept { return pos_; }

 private:
  Position pos_;
};

/// A semantic failure: syntactically valid input that violates a constraint
/// (e.g. an XLink arc whose label has no locator, an XPath function called
/// with the wrong arity).
class SemanticError : public Error {
 public:
  using Error::Error;
};

/// Failure to resolve a reference (URI, XPointer, node id, linkbase label).
class ResolutionError : public Error {
 public:
  using Error::Error;
};

}  // namespace navsep
