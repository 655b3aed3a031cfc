// The navigation aspect: the separated navigational concern, expressed as
// an aop::Aspect and woven into page composition (paper Figure 6).
//
// Base page code knows nothing about navigation. It announces a
// PageCompose join point whose payload is the page body element; this
// aspect's after-advice looks up the arcs leaving the node (in the current
// context), and appends the corresponding anchors:
//
//   <div class="navigation">
//     <a class="nav-up" ...>        (Index / Menu membership)
//     <a class="nav-prev" ...>      (tour chain, context-aware)
//     <a class="nav-next" ...>
//     <ul class="nav-index"> ...    (on structure pages)
//   </div>
//
// Swapping access structures — the paper's §5 change request — replaces
// this aspect's arc set (one artifact) and nothing else.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aop/aspect.hpp"
#include "core/arc_chunk.hpp"
#include "hypermedia/access.hpp"
#include "xlink/traversal.hpp"
#include "xml/dom.hpp"

namespace navsep::core {

/// Provenance of one woven anchor: which authored linkbase arc produced
/// which anchor on which page. The incremental rebuild engine
/// (nav/buildgraph) consumes this to invalidate exactly the pages an arc
/// edit touches; tests use it to audit the weave.
struct AnchorProvenance {
  std::string page_id;   // join-point instance the anchor was woven into
  std::string context;   // context tag active at compose time ("" = none)
  std::string source;    // linkbase the arc came from (NavArc::source)
  std::size_t ordinal = 0;  // among that linkbase's arcs leaving the page
  std::string to;        // anchor target id
  std::string role;      // hypermedia::roles::*
};

/// Default class attribute of the injected navigation container — shared
/// with the serve-time overlay splicer, which locates the woven block by
/// this class (a drift would make it miss the block and append a second
/// one).
inline constexpr std::string_view kDefaultNavContainerClass = "navigation";

struct NavigationAspectOptions {
  /// class attribute of the injected container.
  std::string container_class{kDefaultNavContainerClass};

  /// Maps node/page ids to hrefs in the rendered site.
  /// Default: "<id>.html" with ':' replaced by '-' for structure pages.
  std::function<std::string(std::string_view id)> href_for;

  /// Aspect precedence (higher = outer).
  int precedence = 10;

  /// Restrict tour (next/prev) arcs to the current context: when the
  /// PageCompose join point carries a context tag "family:name", a
  /// next/prev arc is emitted only if its arc context matches. Arcs built
  /// from plain access structures carry no context and always match.
  bool context_sensitive = true;

  /// When set, the injector appends one AnchorProvenance entry per woven
  /// anchor. Borrowed; must outlive the aspect. The caller owns clearing
  /// between compositions (the engine drains it per page).
  std::vector<AnchorProvenance>* provenance_log = nullptr;

  /// Families whose context-tagged tour arcs are woven even when the page
  /// is composed OUTSIDE their context: each such context renders as a
  /// labeled tour group (`<div class="nav-tour" data-context="...">`)
  /// after the index entries. This is how a profile-scoped weave makes its
  /// families' tours visible on stored pages (nav::Profile;
  /// serve-time overlays must byte-match a build using the same list).
  /// Empty (the default) keeps the classic behavior: out-of-context tour
  /// arcs are not woven at all.
  std::vector<std::string> woven_context_families;
};

/// Default id → href mapping (shared with the renderers).
[[nodiscard]] std::string default_href_for(std::string_view id);

/// Render the navigation container for one page into `parent` from the
/// arcs leaving it (`arcs`, in combined linkbase order), honoring the
/// same context/role partition rules the NavigationAspect weaves with.
/// Returns the appended <div class="navigation"> (or nullptr when no arc
/// applies and nothing was appended).
///
/// This is THE navigation markup producer: the aspect's advice calls it
/// at weave time and the serve-time overlay path (serve/SiteSnapshot)
/// calls it per (page, profile) — one code path, so a late-composed
/// navigation block is byte-identical to a woven one by construction.
xml::Element* render_navigation(xml::Element& parent,
                                std::string_view page_instance,
                                std::string_view current_context,
                                const std::vector<const NavArc*>& arcs,
                                const NavigationAspectOptions& options);

/// Builds the aspect. The returned Aspect is self-contained: it shares
/// ownership of its arc chunks and reads their page indexes.
class NavigationAspect {
 public:
  /// From materialized access-structure arcs (no context restriction).
  [[nodiscard]] static std::shared_ptr<aop::Aspect> from_arcs(
      const std::vector<hypermedia::AccessArc>& arcs,
      const NavigationAspectOptions& options = {});

  /// From linkbase chunks in weave order, whose arcs keep their context
  /// tags, making next/prev context-dependent. The aspect holds the
  /// chunks (the engine shares the ones its snapshots publish) instead of
  /// copying them.
  [[nodiscard]] static std::shared_ptr<aop::Aspect> from_contextual_arcs(
      ArcChunks chunks, const NavigationAspectOptions& options = {});

  /// From a parsed linkbase (the separated pipeline's path): nav: arcs are
  /// lifted back into access arcs first.
  [[nodiscard]] static std::shared_ptr<aop::Aspect> from_linkbase(
      const xlink::TraversalGraph& graph,
      const NavigationAspectOptions& options = {});

  /// From a *contextual* linkbase (build_context_linkbase): arcs keep
  /// their nav:context tags, so tour anchors appear only on pages composed
  /// inside the matching navigational context.
  [[nodiscard]] static std::shared_ptr<aop::Aspect> from_contextual_linkbase(
      const xlink::TraversalGraph& graph,
      const NavigationAspectOptions& options = {});

  /// One aspect covering a whole navigation design: the access structure's
  /// linkbase plus any number of contextual linkbases. Registering a
  /// single aspect (instead of one per linkbase) keeps all anchors inside
  /// one container div and one advice invocation per page.
  [[nodiscard]] static std::shared_ptr<aop::Aspect> combined(
      const xlink::TraversalGraph& structure_graph,
      const std::vector<const xlink::TraversalGraph*>& context_graphs,
      const NavigationAspectOptions& options = {});
};

/// A traversal graph labeled with the site path of the linkbase it was
/// loaded from — the provenance unit of the combined arc table.
struct SourcedGraph {
  std::string source;  // e.g. "links.xml", "links-byauthor.xml"
  const xlink::TraversalGraph* graph = nullptr;
};

/// Materialize the combined NavArc set of several linkbases in order,
/// tagging every arc with its source linkbase and its ordinal among that
/// linkbase's arcs leaving the same page. Per page, not per linkbase: a
/// page re-weaves only when its arc slice changes, so an edit elsewhere
/// in the linkbase must not shift the ordinals its stored provenance
/// names — (source, page, ordinal) keeps naming one authored arc.
/// The engine makes one chunk per linkbase of it (make_arc_chunk);
/// weaving those chunks through NavigationAspect::from_contextual_arcs
/// gives exactly what NavigationAspect::combined would, but with
/// provenance attached.
[[nodiscard]] std::vector<NavArc> combined_nav_arcs(
    const std::vector<SourcedGraph>& graphs);

}  // namespace navsep::core
