// One linkbase's navigation arcs as one immutable value.
//
// The paper keeps navigation in separately authored linkbases, so a
// navigation change moves one of them. The runtime carries arcs in that
// same unit: an ArcChunk is built once, when its linkbase's text
// changes, and then shared, never copied, by everything downstream —
// the navigation aspect, route expansion, landmark scoring, the
// published snapshots' profile overlays and the replication wire.
// make_arc_chunk is the only place arcs are partitioned per page and
// slice hashes are folded, for overlays and stored pages alike, so no
// two layers can disagree on either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace navsep::core {

/// One navigation arc as the aspect consumes it.
struct NavArc {
  std::string from;
  std::string to;
  std::string role;     // hypermedia::roles::*
  std::string title;
  std::string context;  // qualified context this arc belongs to ("" = any)
  // Provenance: which authored linkbase this arc came from, and where in
  // it: the 0-based position among that linkbase's nav arcs leaving
  // `from` ("" / 0 for arcs built directly from access structures).
  std::string source;
  std::size_t ordinal = 0;

  friend bool operator==(const NavArc&, const NavArc&) = default;
};

/// Site path of a page → the hash of one linkbase's arcs leaving it.
using PageSliceHashes = std::map<std::string, std::uint64_t, std::less<>>;

/// Hash of a slice no arc contributes to (a page the linkbase never
/// mentions).
inline constexpr std::uint64_t kEmptySliceHash = 0x9e3779b97f4a7c15ull;

/// One arc's content hash over the fields a render reads
/// (from/to/role/title/context).
[[nodiscard]] std::uint64_t arc_hash(const NavArc& arc) noexcept;

/// The arcs of one linkbase. Immutable once built: create it with
/// make_arc_chunk and share it by pointer (the page index and the woven
/// table point into `arcs`, so a chunk is neither copied nor moved).
struct ArcChunk {
  ArcChunk() = default;
  ArcChunk(const ArcChunk&) = delete;
  ArcChunk& operator=(const ArcChunk&) = delete;

  std::string source;        ///< the linkbase's site path, every arc's source
  std::vector<NavArc> arcs;  ///< in authored order
  /// Site path of a page (default_href_for(from)) → the arcs leaving it,
  /// in authored order.
  std::map<std::string, std::vector<const NavArc*>, std::less<>> by_page;
  /// The same pages → hash_combine(slice, arc_hash(arc)) folded over
  /// their arcs from kEmptySliceHash (order-sensitive: slice order is
  /// render order): the slice-precise validity token of an overlay.
  PageSliceHashes slice_hashes;
  /// Page id (a view of an arc's `from`) → the same fold over only the
  /// context-free arcs leaving that node's page: what this linkbase
  /// weaves into its stored bytes (contextual arcs reach only on-demand
  /// compositions). Pages no context-free arc leaves have no entry.
  std::map<std::string_view, std::uint64_t, std::less<>> woven_hashes;

  /// The arcs leaving page `path`; null when none do.
  [[nodiscard]] const std::vector<const NavArc*>* leaving(
      std::string_view path) const;

  /// The slice hash of page `path`; kEmptySliceHash when no arc leaves it.
  [[nodiscard]] std::uint64_t slice_hash(std::string_view path) const;
};

/// A navigation design's chunks, one per linkbase, in weave order.
using ArcChunks = std::vector<std::shared_ptr<const ArcChunk>>;

/// The first of `chunks` whose source is `source`, or null.
[[nodiscard]] std::shared_ptr<const ArcChunk> find_chunk(
    const ArcChunks& chunks, std::string_view source);

/// Build linkbase `source`'s chunk from its arcs in authored order (each
/// arc's source becomes `source`): the page index and both hash tables.
[[nodiscard]] std::shared_ptr<const ArcChunk> make_arc_chunk(
    std::string source, std::vector<NavArc> arcs);

}  // namespace navsep::core
