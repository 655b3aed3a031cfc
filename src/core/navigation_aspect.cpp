#include "core/navigation_aspect.hpp"

#include <algorithm>
#include <utility>

#include "common/strings.hpp"
#include "core/linkbase.hpp"

namespace navsep::core {

std::string default_href_for(std::string_view id) {
  std::string out = strings::replace_all(id, ":", "-");
  return out + ".html";
}

namespace {

using hypermedia::roles::kIndexEntry;
using hypermedia::roles::kMenuEntry;
using hypermedia::roles::kNext;
using hypermedia::roles::kPrev;
using hypermedia::roles::kUp;

/// Family part of a qualified context tag ("ByAuthor:picasso" →
/// "ByAuthor"; an unqualified tag is its own family).
std::string_view context_family(std::string_view context) noexcept {
  return context.substr(0, context.find(':'));
}

/// The advice body: inject navigation for `node_id` into the page body,
/// from the arcs leaving it in each chunk's page index, in weave order.
class NavigationInjector {
 public:
  NavigationInjector(ArcChunks chunks, NavigationAspectOptions options)
      : options_(std::move(options)), chunks_(std::move(chunks)) {
    if (!options_.href_for) options_.href_for = default_href_for;
  }

  void operator()(aop::JoinPointContext& ctx) const {
    xml::Element* const* body_slot =
        std::any_cast<xml::Element*>(&ctx.payload());
    if (body_slot == nullptr || *body_slot == nullptr) return;
    xml::Element& body = **body_slot;

    const std::string& node_id = ctx.join_point().instance;
    const std::string page = default_href_for(node_id);
    std::vector<const NavArc*> arcs;
    for (const std::shared_ptr<const ArcChunk>& chunk : chunks_) {
      if (const std::vector<const NavArc*>* leaving = chunk->leaving(page)) {
        for (const NavArc* arc : *leaving) {
          if (arc->from == node_id) arcs.push_back(arc);
        }
      }
    }
    if (arcs.empty()) return;
    render_navigation(body, node_id, ctx.join_point().tag(aop::tags::kContext),
                      arcs, options_);
  }

 private:
  NavigationAspectOptions options_;
  ArcChunks chunks_;
};

}  // namespace

xml::Element* render_navigation(xml::Element& parent,
                                std::string_view page_instance,
                                std::string_view current_context,
                                const std::vector<const NavArc*>& arcs,
                                const NavigationAspectOptions& options) {
  const auto href_for = [&](std::string_view id) {
    return options.href_for ? options.href_for(id) : default_href_for(id);
  };

  // Partition the page's arcs by role, honoring context sensitivity: an
  // out-of-context tour arc is dropped unless its family is in
  // woven_context_families, in which case it renders inside a labeled
  // per-context tour group (first-appearance order).
  std::vector<const NavArc*> ups, prevs, nexts, entries;
  std::vector<std::pair<std::string_view, std::vector<const NavArc*>>> tours;
  for (const NavArc* arc : arcs) {
    const bool tour_arc = arc->role == kNext || arc->role == kPrev;
    if (options.context_sensitive && tour_arc && !arc->context.empty() &&
        arc->context != current_context) {
      const std::string_view family = context_family(arc->context);
      const bool woven =
          std::find(options.woven_context_families.begin(),
                    options.woven_context_families.end(),
                    family) != options.woven_context_families.end();
      if (!woven) continue;
      auto group = std::find_if(
          tours.begin(), tours.end(),
          [&](const auto& t) { return t.first == arc->context; });
      if (group == tours.end()) {
        tours.emplace_back(arc->context, std::vector<const NavArc*>{});
        group = std::prev(tours.end());
      }
      group->second.push_back(arc);
      continue;
    }
    if (arc->role == kUp) {
      ups.push_back(arc);
    } else if (arc->role == kPrev) {
      prevs.push_back(arc);
    } else if (arc->role == kNext) {
      nexts.push_back(arc);
    } else if (arc->role == kIndexEntry || arc->role == kMenuEntry) {
      entries.push_back(arc);
    }
  }
  if (ups.empty() && prevs.empty() && nexts.empty() && entries.empty() &&
      tours.empty()) {
    return nullptr;
  }

  xml::Element& nav = parent.append_element("div");
  nav.set_attribute("class", options.container_class);

  auto anchor = [&](xml::Element& anchor_parent, const NavArc& arc,
                    std::string_view cls, std::string_view log_context) {
    xml::Element& a = anchor_parent.append_element("a");
    a.set_attribute("href", href_for(arc.to));
    a.set_attribute("class", cls);
    a.append_text(arc.title.empty() ? arc.to : arc.title);
    if (options.provenance_log != nullptr) {
      options.provenance_log->push_back(AnchorProvenance{
          std::string(page_instance), std::string(log_context), arc.source,
          arc.ordinal, arc.to, arc.role});
    }
  };

  for (const NavArc* arc : ups) anchor(nav, *arc, "nav-up", current_context);
  for (const NavArc* arc : prevs) {
    anchor(nav, *arc, "nav-prev", current_context);
  }
  for (const NavArc* arc : nexts) {
    anchor(nav, *arc, "nav-next", current_context);
  }
  if (!entries.empty()) {
    xml::Element& ul = nav.append_element("ul");
    ul.set_attribute("class", "nav-index");
    for (const NavArc* arc : entries) {
      anchor(ul.append_element("li"), *arc, "nav-entry", current_context);
    }
  }
  for (const auto& [context, group] : tours) {
    xml::Element& tour = nav.append_element("div");
    tour.set_attribute("class", "nav-tour");
    tour.set_attribute("data-context", context);
    xml::Element& label = tour.append_element("span");
    label.set_attribute("class", "nav-tour-label");
    label.append_text(context);
    for (const NavArc* arc : group) {
      // Out-of-context anchors log the context they belong to, not the
      // (different) one the page was composed in.
      anchor(tour, *arc, arc->role == kPrev ? "nav-prev" : "nav-next",
             arc->context);
    }
  }
  return &nav;
}

namespace {

std::shared_ptr<aop::Aspect> build_aspect(ArcChunks chunks,
                                          const NavigationAspectOptions& o) {
  auto aspect = std::make_shared<aop::Aspect>("navigation", o.precedence);
  NavigationInjector injector(std::move(chunks), o);
  aspect->after("compose(*) || buildIndex(*)", std::move(injector),
                "inject navigation anchors for the active access structure");
  return aspect;
}

std::shared_ptr<aop::Aspect> build_aspect(std::vector<NavArc> arcs,
                                          const NavigationAspectOptions& o) {
  return build_aspect({make_arc_chunk("", std::move(arcs))}, o);
}

}  // namespace

std::shared_ptr<aop::Aspect> NavigationAspect::from_arcs(
    const std::vector<hypermedia::AccessArc>& arcs,
    const NavigationAspectOptions& options) {
  std::vector<NavArc> nav;
  nav.reserve(arcs.size());
  for (const auto& a : arcs) {
    nav.push_back(NavArc{a.from, a.to, a.role, a.title, "", "", 0});
  }
  return build_aspect(std::move(nav), options);
}

std::shared_ptr<aop::Aspect> NavigationAspect::from_contextual_arcs(
    ArcChunks chunks, const NavigationAspectOptions& options) {
  return build_aspect(std::move(chunks), options);
}

std::shared_ptr<aop::Aspect> NavigationAspect::from_linkbase(
    const xlink::TraversalGraph& graph,
    const NavigationAspectOptions& options) {
  return from_arcs(arcs_from_graph(graph), options);
}

std::shared_ptr<aop::Aspect> NavigationAspect::from_contextual_linkbase(
    const xlink::TraversalGraph& graph,
    const NavigationAspectOptions& options) {
  return build_aspect(combined_nav_arcs({{"", &graph}}), options);
}

}  // namespace navsep::core
