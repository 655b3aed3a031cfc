// Linkbase authoring: the XLink half of the separation.
//
// This is the heart of the paper's proposal (its Figure 9): the whole
// access structure — which arcs exist, in which order, with which labels —
// lives in ONE authored artifact, links.xml, expressed as an XLink
// extended link. Changing the access structure (the Index → IndexedGuided-
// Tour request of §5) rewrites only this file; the data documents and the
// presentation stylesheet are untouched. bench/e1_change_impact measures
// exactly that.
//
// Each linkbase shape has one producer, which reads the model and emits
// the linkbase as a LinkbaseDraft, XLink extended links in document
// order: draft_linkbase for an access structure, draft_context_linkbase
// for a context family (families, route expansions and landmark picks
// alike). Two consumers read a draft, so the text and the arcs derived
// from it come from one source without a DOM in between: write_linkbase
// prints the text every served linkbase is, and expand_linkbase runs
// the XLink processor's own expansion (xlink::expand_arcs) and NavArc
// reading (combined_nav_arcs's) over it. load_linkbase and
// combined_nav_arcs reach the same two steps from a parsed document, for
// linkbases navsep did not author.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/arc_chunk.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "hypermedia/navigational.hpp"
#include "xlink/traversal.hpp"
#include "xml/dom.hpp"

namespace navsep::core {

/// Prefix distinguishing navigation arcroles inside the linkbase.
inline constexpr std::string_view kNavArcrolePrefix = "nav:";

/// Namespace of the navsep linkbase extension attributes (nav:context).
inline constexpr std::string_view kNavExtensionNamespace =
    "urn:navsep:navigation";

struct LinkbaseOptions {
  /// Base URI of the linkbase (locator hrefs stay relative to it).
  std::string base_uri = "http://museum.example/site/links.xml";

  /// Maps a node id to the URI reference of its data resource, e.g.
  /// "guitar" -> "data/picasso.xml#guitar". The default points every node
  /// at "data/<id>.xml".
  std::function<std::string(std::string_view node_id)> data_href;

  /// Maps an access-structure page id ("index:paintings") to its URI
  /// reference. Default: "paintings-index.xml".
  std::function<std::string(std::string_view page_id)> structure_href;
};

/// One linkbase as its producer emits it: XLink extended links whose
/// locators and arcs, in document order, hold the value of every
/// attribute the text carries, with no element behind them. Arcroles
/// carry kNavArcrolePrefix; a structure arc is show="replace" and
/// actuate="onRequest", a tour arc leaves both unspecified.
struct LinkbaseDraft {
  /// A context linkbase: <tour> links, each tagged (and each of its arcs
  /// tagged) with nav:context, the link's title. Otherwise one
  /// <structure> link.
  bool tours = false;
  std::string base_uri;
  std::vector<xlink::ExtendedLink> links;
};

/// The access structure's draft: one extended link whose locators cover
/// every member (first position, last title), then every other arc
/// endpoint (titled by its id), and whose arcs are `arcs` in order with
/// arcrole "nav:<role>". `arcs` is the structure's arc set (the engine
/// passes MaterializedStructure::stored_arcs(), read in place); the draft
/// copies what it keeps.
[[nodiscard]] LinkbaseDraft draft_linkbase(
    const hypermedia::AccessStructure& structure,
    const std::vector<hypermedia::AccessArc>& arcs,
    const LinkbaseOptions& options = {});

/// A context family's draft: one guided-tour link per context, tagged
/// with the context's qualified name, with a locator per listed id and a
/// next/prev arc pair per adjacent pair. `title_of` titles the locators
/// (and the arcs to them); it must return the id itself for ids it does
/// not know, as the model overload does.
[[nodiscard]] LinkbaseDraft draft_context_linkbase(
    const hypermedia::ContextFamily& family,
    const std::function<std::string(std::string_view node_id)>& title_of,
    const LinkbaseOptions& options = {});

/// Same, titled from the navigational model.
[[nodiscard]] LinkbaseDraft draft_context_linkbase(
    const hypermedia::ContextFamily& family,
    const hypermedia::NavigationalModel& model,
    const LinkbaseOptions& options = {});

/// The draft's text: the pretty-printed XML document (2-space indent,
/// declaration first, self-closed empty elements, attribute values
/// escaped by xml::escape_attribute) that every authored linkbase is.
[[nodiscard]] std::string write_linkbase(const LinkbaseDraft& draft);

/// What an XLink processor reads back from write_linkbase(draft): the
/// chunk of its navigation arcs under `source` and its traversal graph.
struct LinkbaseArcs {
  std::shared_ptr<const ArcChunk> chunk;
  xlink::TraversalGraph graph;
};

/// Expand each of the draft's links through xlink::expand_arcs against
/// base_uri, and read the expanded arcs as combined_nav_arcs reads a
/// loaded graph's, each tagged with its tour's nav:context and numbered
/// across the whole linkbase. Graph arcs point at no element.
[[nodiscard]] LinkbaseArcs expand_linkbase(const LinkbaseDraft& draft,
                                           std::string source);

/// The access structure's linkbase as a document: an xml::parse of
/// write_linkbase(draft_linkbase(structure, structure.arcs(), options)),
/// under options.base_uri.
[[nodiscard]] std::unique_ptr<xml::Document> build_linkbase(
    const hypermedia::AccessStructure& structure,
    const LinkbaseOptions& options = {});

/// Load a linkbase document into a traversal graph (the XLink processor:
/// xlink::TraversalGraph::from_linkbase).
[[nodiscard]] xlink::TraversalGraph load_linkbase(const xml::Document& doc);

/// A traversal graph labeled with the site path of the linkbase it was
/// loaded from — the provenance unit of combined_nav_arcs.
struct SourcedGraph {
  std::string source;  // e.g. "links.xml", "links-byauthor.xml"
  const xlink::TraversalGraph* graph = nullptr;
};

/// The NavArcs of several loaded linkbases in order: each graph's arcs
/// whose arcrole starts with kNavArcrolePrefix, with endpoint ids by
/// node_id_for of their URIs, the role after the prefix, the arc's
/// nav:context attribute, its source linkbase and its ordinal among that
/// linkbase's arcs leaving the same node. Per page, not per linkbase: a
/// page re-weaves only when its arc slice changes, so an edit elsewhere
/// in the linkbase must not shift the ordinals its stored provenance
/// names — (source, page, ordinal) keeps naming one authored arc.
/// expand_linkbase reads a draft's arcs by the same rule; this is the
/// path for linkbases navsep did not author.
[[nodiscard]] std::vector<NavArc> combined_nav_arcs(
    const std::vector<SourcedGraph>& graphs);

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

}  // namespace navsep::core
