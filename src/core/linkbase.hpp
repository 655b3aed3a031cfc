// Linkbase synthesis and loading: the XLink half of the separation.
//
// This is the heart of the paper's proposal (its Figure 9): the whole
// access structure — which arcs exist, in which order, with which labels —
// lives in ONE authored artifact, links.xml, expressed as an XLink
// extended link. Changing the access structure (the Index → IndexedGuided-
// Tour request of §5) rewrites only this file; the data documents and the
// presentation stylesheet are untouched. bench/e1_change_impact measures
// exactly that.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "hypermedia/navigational.hpp"
#include "xlink/traversal.hpp"
#include "xml/dom.hpp"

namespace navsep::core {

/// Prefix distinguishing navigation arcroles inside the linkbase.
inline constexpr std::string_view kNavArcrolePrefix = "nav:";

struct LinkbaseOptions {
  /// Base URI recorded on the produced document (locator hrefs stay
  /// relative to it).
  std::string base_uri = "http://museum.example/site/links.xml";

  /// Maps a node id to the URI reference of its data resource, e.g.
  /// "guitar" -> "data/picasso.xml#guitar". The default points every node
  /// at "data/<id>.xml".
  std::function<std::string(std::string_view node_id)> data_href;

  /// Maps an access-structure page id ("index:paintings") to its URI
  /// reference. Default: "index.xml".
  std::function<std::string(std::string_view page_id)> structure_href;
};

/// Build the links.xml document for one access structure: one extended
/// link whose locators cover every member (plus structure pages) and whose
/// arcs mirror AccessStructure::arcs() with arcrole "nav:<role>".
[[nodiscard]] std::unique_ptr<xml::Document> build_linkbase(
    const hypermedia::AccessStructure& structure,
    const LinkbaseOptions& options = {});

/// Load a linkbase document back into a traversal graph (convenience over
/// xlink::TraversalGraph::from_linkbase, with nav-arcrole filtering).
[[nodiscard]] xlink::TraversalGraph load_linkbase(const xml::Document& doc);

/// The default resource URI → node id mapping of the readers below: the
/// fragment, falling back to the last path segment without extension,
/// with the two structure-page href conventions mapped back to
/// "index:<name>".
[[nodiscard]] std::string node_id_for(std::string_view uri);

/// Extract the access-structure arcs back out of a traversal graph:
/// the inverse of build_linkbase up to URI mapping. `id_for` maps a
/// resource URI back to a node id (defaults to node_id_for).
[[nodiscard]] std::vector<hypermedia::AccessArc> arcs_from_graph(
    const xlink::TraversalGraph& graph,
    const std::function<std::string(std::string_view uri)>& id_for = {});

// --- contextual linkbases -----------------------------------------------------
//
// The paper's §2 point — "the next page to visit … will depend on the
// previous navigation" — needs *per-context* tours. A contextual linkbase
// carries one extended link per navigational context; its next/prev arcs
// are tagged with the qualified context name in a nav:context attribute
// (namespace urn:navsep:navigation), so the navigation aspect can emit
// them only when the page is composed inside that context.

/// Namespace of the navsep linkbase extension attributes.
inline constexpr std::string_view kNavExtensionNamespace =
    "urn:navsep:navigation";

/// Build a linkbase with one extended link (a guided tour) per context of
/// the family. Member titles come from the navigational model.
[[nodiscard]] std::unique_ptr<xml::Document> build_context_linkbase(
    const hypermedia::ContextFamily& family,
    const hypermedia::NavigationalModel& model,
    const LinkbaseOptions& options = {});

/// Same authoring, but titles come from a function instead of a model.
/// The model overload delegates here — one implementation authors every
/// context linkbase, which is what pins the lazily synthesized route
/// linkbase (serve::SiteSnapshot has only the engine's exported title
/// table, no NavigationalModel) byte-identical to the ahead-of-time
/// authored one. `title_of` must return the node id itself for unknown
/// ids (the model overload's fallback).
[[nodiscard]] std::unique_ptr<xml::Document> build_context_linkbase(
    const hypermedia::ContextFamily& family,
    const std::function<std::string(std::string_view node_id)>& title_of,
    const LinkbaseOptions& options = {});

}  // namespace navsep::core
