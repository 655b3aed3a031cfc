// Arc expansion and the traversal graph.
//
// An XLink arc is declared between *labels*; traversal happens between
// *resources*. This module expands arcs to endpoint pairs (the cross
// product, per XLink 1.0 §5.1.3: an absent from/to stands for every
// labeled endpoint), resolves hrefs against the linkbase base URI, and
// materializes the result as a graph keyed by normalized URI so a browser
// can ask "which arcs leave the resource I am looking at?".
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "xlink/model.hpp"
#include "xml/dom.hpp"

namespace navsep::xlink {

/// One end of an expanded arc.
struct Endpoint {
  bool is_local = false;             // resource element inside the link itself
  const xml::Element* element = nullptr;  // the locator/resource element
  std::string uri;    // absolute URI incl. fragment ("" for local resources)
  std::string label;
  std::string role;
  std::string title;
};

/// A fully expanded arc: concrete endpoints plus traversal behavior.
struct Arc {
  Endpoint from;
  Endpoint to;
  std::string arcrole;
  std::string title;
  Show show = Show::Unspecified;
  Actuate actuate = Actuate::Unspecified;
  const xml::Element* origin = nullptr;  // the arc or simple-link element
};

/// Expand one extended link. `base_uri` is the URI of the document holding
/// the link (hrefs resolve against it).
[[nodiscard]] std::vector<Arc> expand_arcs(const ExtendedLink& link,
                                           std::string_view base_uri);

/// Same, appending the link's arcs to `out`.
void expand_arcs(const ExtendedLink& link, std::string_view base_uri,
                 std::vector<Arc>& out);

/// Expand everything in a collection (simple links yield one arc each,
/// from the document holding them to their href).
[[nodiscard]] std::vector<Arc> expand_arcs(const LinkCollection& links,
                                           std::string_view base_uri);

/// Known documents, keyed by normalized absolute URI (fragment stripped).
/// The registry does not own documents; callers keep them alive.
class DocumentRegistry {
 public:
  /// Register under the document's own base_uri().
  void add(const xml::Document& doc);
  void add(std::string_view uri, const xml::Document& doc);

  [[nodiscard]] const xml::Document* find(std::string_view uri) const;
  [[nodiscard]] std::size_t size() const noexcept { return docs_.size(); }

  /// Resolve a URI-with-optional-fragment to a concrete element:
  /// the fragment is an XPointer into the found document; no fragment
  /// means the document element. Returns nullptr when the document is
  /// unknown or the pointer selects nothing.
  [[nodiscard]] const xml::Element* resolve(std::string_view uri) const;

 private:
  std::map<std::string, const xml::Document*, std::less<>> docs_;
};

/// Strip the fragment and normalize (for registry keys).
[[nodiscard]] std::string normalize_document_uri(std::string_view uri);

/// Normalize a full URI reference including its fragment (for arc keys).
[[nodiscard]] std::string normalize_ref(std::string_view uri);

/// The traversal graph over a set of expanded arcs.
///
/// Lookups are served by a per-source index: each distinct normalized
/// endpoint URI maps to the (document-ordered) arc indices departing /
/// arriving there, so `outgoing()` is one map probe — no full-arc-list
/// scan and no per-call sort. Building it normalizes each distinct
/// endpoint URI once.
class TraversalGraph {
 public:
  TraversalGraph() = default;
  explicit TraversalGraph(std::vector<Arc> arcs);

  /// Convenience: extract + expand + build from a linkbase document.
  [[nodiscard]] static TraversalGraph from_linkbase(const xml::Document& doc);

  [[nodiscard]] const std::vector<Arc>& arcs() const noexcept { return arcs_; }

  /// Arcs departing the resource identified by `uri` (normalized before
  /// lookup). Order: linkbase document order.
  [[nodiscard]] std::vector<const Arc*> outgoing(std::string_view uri) const;

  /// Arcs arriving at `uri`.
  [[nodiscard]] std::vector<const Arc*> incoming(std::string_view uri) const;

  /// Arc indices departing the *already normalized* `uri` — the zero-copy
  /// fast path behind `outgoing()`, for callers that loop over one
  /// source: normalize once, hold the span. Null when none.
  [[nodiscard]] const std::vector<std::size_t>* outgoing_indices(
      std::string_view normalized_uri) const;

  /// Every distinct endpoint URI appearing in the graph, normalized and
  /// sorted: the union of the source and target index keys.
  [[nodiscard]] std::vector<std::string> resource_uris() const;

  /// Arcs departing `uri` whose arcrole equals `arcrole`.
  [[nodiscard]] std::vector<const Arc*> outgoing_with_role(
      std::string_view uri, std::string_view arcrole) const;

  /// Merge another graph into this one (linkbase aggregation): its arcs
  /// are appended and its already-normalized index buckets appended to
  /// this graph's, so nothing is normalized twice.
  void merge(const TraversalGraph& other);

 private:
  std::vector<Arc> arcs_;
  // Per-source / per-target index: indices are inserted in increasing
  // order, so every bucket stays sorted in linkbase document order.
  std::map<std::string, std::vector<std::size_t>, std::less<>> by_from_;
  std::map<std::string, std::vector<std::size_t>, std::less<>> by_to_;
};

/// Does `arcrole` name the navigation role `role`, under the site
/// convention that roles may be written bare ("next") or prefixed
/// ("nav:next")? One definition shared by Browser and the serve-layer
/// snapshots so the two can never disagree on role lookup.
[[nodiscard]] bool arcrole_matches(std::string_view arcrole,
                                   std::string_view role);

/// May a consumer actuate this arc? show="none" / actuate="none" forbid
/// traversal (XLink 1.0 §5.6.1) — the one rule every arc follower
/// applies.
[[nodiscard]] bool is_traversable(const Arc& arc) noexcept;

/// The arcrole XLink 1.0 §5.1.2 reserves for "load this linkbase too".
inline constexpr std::string_view kLinkbaseArcrole =
    "http://www.w3.org/1999/xlink/properties/linkbase";

/// Linkbase discovery: URIs of external linkbases a document announces
/// through arcs with the reserved arcrole, resolved against the document's
/// base URI. Callers fetch those documents and merge their graphs.
[[nodiscard]] std::vector<std::string> find_linkbase_references(
    const xml::Document& doc);

/// Load a document's own arcs plus every announced linkbase reachable
/// through `fetch` (recursively, cycle-safe). `fetch` returns nullptr for
/// unavailable documents, which are skipped.
[[nodiscard]] TraversalGraph load_with_linkbases(
    const xml::Document& doc,
    const std::function<const xml::Document*(std::string_view uri)>& fetch);

}  // namespace navsep::xlink
