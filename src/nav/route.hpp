// Route programs: navigation as declarative route expressions.
//
// "Semantic Navigation on the Web of Data" specifies navigation as
// regex-like path expressions evaluated over a link graph. This module is
// that idea grafted onto the paper's separated navigation aspect: a tiny
// expression language over arc roles and context families —
//
//   expr  := seq ('|' seq)*          alternation (lowest precedence)
//   seq   := star ('/' star)*        sequence
//   star  := atom ['*']              zero-or-more
//   atom  := IDENT                   arc role ("next", "index-entry", ...)
//          | '@' IDENT               context family ("@ByAuthor")
//          | '(' expr ')'
//
// — parsed into a small AST and *expanded* against the engine's authored
// arc chunks: the result of a route program is the set of node ids
// reachable from any node via a path whose arc-label sequence matches the
// expression ("all paintings reachable via @ByAuthor then @ByPeriod").
// That set becomes an ordinary guided-tour context, so a route program
// compiles into either
//
//   * an ahead-of-time authored linkbase (`route:<name>` build-graph node
//     feeding `links-<name>.xml` through the normal weave path), or
//   * a lazily synthesized serve-time overlay (serve::SiteSnapshot
//     expands on first touch and memoizes under slice validity),
//
// with the two pinned byte-identical by tests/route_test.cpp.
//
// Atom semantics over a core::NavArc table:
//   * a role atom `r` matches every non-route arc whose role is `r`
//     (structure arcs and family tour arcs alike);
//   * a family atom `@F` matches every arc whose context tag belongs to
//     family `F` (structure arcs carry no context and never match).
// Route-generated arcs are never part of the expansion input — routes
// are defined over the *authored* navigation, so route expansion is a
// function (not a fixpoint) and lazy/AOT order cannot matter.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/arc_chunk.hpp"
#include "hypermedia/context.hpp"

namespace navsep::nav {

/// How a registered route program materializes.
enum class RouteCompile : std::uint8_t {
  /// Expanded at mutation time into an authored `links-<name>.xml`
  /// artifact through the build graph (dirties like any linkbase).
  Aot = 0,
  /// Expanded at serve time inside the snapshot, memoized per epoch.
  Lazy = 1,
};

/// A named route program as registered with the engine and shipped on the
/// replication wire. `expression` is the source text; the engine stores
/// the canonical form (`print_route(parse_route(expression))`) so hashes
/// and wire bytes are insensitive to whitespace.
struct RouteProgram {
  std::string name;
  std::string expression;
  RouteCompile compile = RouteCompile::Aot;

  friend bool operator==(const RouteProgram&, const RouteProgram&) = default;
};

/// Route-expression AST. A value type: Seq/Alt hold two or more children,
/// Star exactly one, Role/Family hold the atom name.
struct RouteExpr {
  enum class Kind : std::uint8_t { Role, Family, Seq, Alt, Star };
  Kind kind = Kind::Role;
  std::string name;                 // Role / Family atoms
  std::vector<RouteExpr> children;  // Seq / Alt / Star

  friend bool operator==(const RouteExpr&, const RouteExpr&) = default;
};

/// Parse a route expression. Throws navsep::ParseError naming the
/// offending token, with its byte offset carried as the error position
/// — the compile-error contract tests/route_test.cpp pins.
[[nodiscard]] RouteExpr parse_route(std::string_view expression);

/// Canonical printer: minimal parentheses, single spaces around '/' and
/// '|'. Fixpoint: `parse_route(print_route(e))` re-prints identically.
[[nodiscard]] std::string print_route(const RouteExpr& expr);

/// Expand a route expression against the arcs of `chunks`: the sorted,
/// duplicate-free set of node ids reachable from any node via a matching
/// path. A nullable expression (empty path matches) therefore yields
/// every node named by the arcs. Callers pass the authored structure and
/// family chunks only, so routes never observe generated navigation.
[[nodiscard]] std::vector<std::string> expand_route(
    const RouteExpr& expr, const core::ArcChunks& chunks);

/// Wrap an expansion as the single-context family the weave path
/// consumes: family `name` with one context `name:route` holding the
/// expanded ids as a guided tour. This is THE bridge that makes a route
/// program downstream-indistinguishable from an authored context family.
[[nodiscard]] hypermedia::ContextFamily route_context_family(
    std::string_view name, const RouteExpr& expr,
    const core::ArcChunks& chunks);

/// FNV-1a over the program's identity (name, canonical expression,
/// compile mode) — the route build-graph node content and the wire-level
/// route-table token. One token per program: editing an expression
/// changes it, re-registering the same text does not.
[[nodiscard]] std::uint64_t route_token(const RouteProgram& program);

}  // namespace navsep::nav
