#include "core/linkbase.hpp"

#include <unordered_map>
#include <utility>

#include "uri/uri.hpp"
#include "xlink/model.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace navsep::core {

namespace {

std::string default_data_href(std::string_view node_id) {
  return "data/" + std::string(node_id) + ".xml";
}

std::string default_structure_href(std::string_view page_id) {
  // "index:paintings" -> "paintings-index.xml"
  std::string name(page_id);
  if (std::size_t colon = name.find(':'); colon != std::string::npos) {
    name = name.substr(colon + 1) + "-index";
  }
  return name + ".xml";
}

bool is_structure_page(std::string_view id) {
  return id.rfind("index:", 0) == 0;
}

/// Reads expanded arcs as the NavArcs of one linkbase, `source`, by
/// combined_nav_arcs's rule.
struct NavArcReader {
  std::string source;
  std::unordered_map<std::string, std::string> ids;  // URI -> node id
  std::unordered_map<std::string_view, std::size_t> next_ordinal;

  void read(const xlink::Arc& arc, std::string_view context,
            std::vector<NavArc>& out) {
    if (!arc.arcrole.starts_with(kNavArcrolePrefix)) return;
    const std::string& from = id_of(arc.from.uri);
    out.push_back(NavArc{from, id_of(arc.to.uri),
                         arc.arcrole.substr(kNavArcrolePrefix.size()),
                         arc.title, std::string(context), source,
                         next_ordinal[from]++});
  }

  const std::string& id_of(const std::string& uri) {
    auto [it, fresh] = ids.try_emplace(uri);
    if (fresh) it->second = node_id_for(uri);
    return it->second;
  }
};

}  // namespace

LinkbaseDraft draft_linkbase(const hypermedia::AccessStructure& structure,
                             const std::vector<hypermedia::AccessArc>& arcs,
                             const LinkbaseOptions& options) {
  const auto href_of = [&options](std::string_view id) {
    if (is_structure_page(id)) {
      return options.structure_href ? options.structure_href(id)
                                    : default_structure_href(id);
    }
    return options.data_href ? options.data_href(id) : default_data_href(id);
  };
  xlink::ExtendedLink link;
  link.role = to_string(structure.kind());
  link.title = structure.name();
  const std::vector<hypermedia::Member>& members = structure.members();
  link.locators.reserve(members.size() + 1);
  link.arcs.reserve(arcs.size());
  // Locators: members first (stable, human-friendly order; a member
  // listed twice keeps its first position and its last title), then
  // every other arc endpoint, titled by its id.
  std::unordered_map<std::string_view, std::size_t> located;
  located.reserve(members.size() + 1);
  const auto locate = [&](const std::string& id, const std::string& title,
                          bool member) {
    auto [at, fresh] = located.try_emplace(id, link.locators.size());
    if (fresh) {
      link.locators.push_back({nullptr, href_of(id), id, {}, title});
    } else if (member) {
      link.locators[at->second].title = title;
    }
  };
  for (const hypermedia::Member& m : members) locate(m.node_id, m.title, true);
  // Arcs: one per materialized access arc, in structure order.
  for (const hypermedia::AccessArc& a : arcs) {
    locate(a.from, a.from, false);
    locate(a.to, a.to, false);
    link.arcs.push_back({nullptr, a.from, a.to,
                         std::string(kNavArcrolePrefix) + a.role, a.title,
                         xlink::Show::Replace, xlink::Actuate::OnRequest});
  }
  LinkbaseDraft draft{false, options.base_uri, {}};
  draft.links.push_back(std::move(link));
  return draft;
}

LinkbaseDraft draft_context_linkbase(
    const hypermedia::ContextFamily& family,
    const std::function<std::string(std::string_view node_id)>& title_of,
    const LinkbaseOptions& options) {
  LinkbaseDraft draft{true, options.base_uri, {}};
  draft.links.reserve(family.contexts().size());
  for (const hypermedia::NavigationalContext& ctx : family.contexts()) {
    xlink::ExtendedLink& link = draft.links.emplace_back();
    link.role = "GuidedTour";
    link.title = ctx.qualified_name();
    const std::vector<std::string>& ids = ctx.node_ids();
    for (const std::string& id : ids) {
      link.locators.push_back(
          {nullptr,
           options.data_href ? options.data_href(id) : default_data_href(id),
           id, {}, title_of(id)});
    }
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
      link.arcs.push_back({nullptr, ids[i], ids[i + 1], "nav:next",
                           "Next: " + link.locators[i + 1].title});
      link.arcs.push_back({nullptr, ids[i + 1], ids[i], "nav:prev",
                           "Previous: " + link.locators[i].title});
    }
  }
  return draft;
}

LinkbaseDraft draft_context_linkbase(const hypermedia::ContextFamily& family,
                                     const hypermedia::NavigationalModel& model,
                                     const LinkbaseOptions& options) {
  return draft_context_linkbase(
      family,
      [&model](std::string_view id) {
        const hypermedia::NavNode* node = model.node(id);
        return node != nullptr ? node->title() : std::string(id);
      },
      options);
}

std::string write_linkbase(const LinkbaseDraft& draft) {
  std::size_t size = 256;
  for (const xlink::ExtendedLink& link : draft.links) {
    size += 160 * link.locators.size() + 224 * link.arcs.size();
  }
  std::string out;
  out.reserve(size);
  const auto attribute = [&out](std::string_view name,
                                std::string_view value) {
    out += ' ';
    out += name;
    out += "=\"";
    xml::append_escaped_attribute(out, value);
    out += '"';
  };
  out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<links";
  attribute("xmlns:xlink", xlink::kNamespace);
  if (draft.tours) attribute("xmlns:nav", kNavExtensionNamespace);
  if (draft.links.empty()) {
    out += "/>\n";
    return out;
  }
  out += '>';
  const std::string_view element = draft.tours ? "tour" : "structure";
  for (const xlink::ExtendedLink& link : draft.links) {
    out += "\n  <";
    out += element;
    attribute("xlink:type", "extended");
    attribute("xlink:role", link.role);
    attribute("xlink:title", link.title);
    if (draft.tours) attribute("nav:context", link.title);
    if (link.locators.empty() && link.arcs.empty()) {
      out += "/>";
      continue;
    }
    out += '>';
    for (const xlink::Locator& l : link.locators) {
      out += "\n    <loc";
      attribute("xlink:type", "locator");
      attribute("xlink:href", l.href);
      attribute("xlink:label", l.label);
      attribute("xlink:title", l.title);
      out += "/>";
    }
    for (const xlink::ArcSpec& a : link.arcs) {
      out += "\n    <go";
      attribute("xlink:type", "arc");
      attribute("xlink:from", a.from);
      attribute("xlink:to", a.to);
      attribute("xlink:arcrole", a.arcrole);
      attribute("xlink:title", a.title);
      if (draft.tours) attribute("nav:context", link.title);
      if (a.show != xlink::Show::Unspecified) {
        attribute("xlink:show", xlink::to_string(a.show));
      }
      if (a.actuate != xlink::Actuate::Unspecified) {
        attribute("xlink:actuate", xlink::to_string(a.actuate));
      }
      out += "/>";
    }
    out += "\n  </";
    out += element;
    out += '>';
  }
  out += "\n</links>\n";
  return out;
}

LinkbaseArcs expand_linkbase(const LinkbaseDraft& draft, std::string source) {
  std::size_t specs = 0;
  for (const xlink::ExtendedLink& link : draft.links) specs += link.arcs.size();
  std::vector<xlink::Arc> arcs;
  arcs.reserve(specs);
  std::vector<NavArc> nav;
  nav.reserve(specs);
  NavArcReader reader{source, {}, {}};
  for (const xlink::ExtendedLink& link : draft.links) {
    const std::size_t first = arcs.size();
    xlink::expand_arcs(link, draft.base_uri, arcs);
    const std::string_view context =
        draft.tours ? std::string_view(link.title) : std::string_view();
    for (std::size_t i = first; i < arcs.size(); ++i) {
      reader.read(arcs[i], context, nav);
    }
  }
  return LinkbaseArcs{make_arc_chunk(std::move(source), std::move(nav)),
                      xlink::TraversalGraph(std::move(arcs))};
}

std::unique_ptr<xml::Document> build_linkbase(
    const hypermedia::AccessStructure& structure,
    const LinkbaseOptions& options) {
  xml::ParseOptions parse;
  parse.base_uri = options.base_uri;
  return xml::parse(
      write_linkbase(draft_linkbase(structure, structure.arcs(), options)),
      parse);
}

xlink::TraversalGraph load_linkbase(const xml::Document& doc) {
  return xlink::TraversalGraph::from_linkbase(doc);
}

std::vector<NavArc> combined_nav_arcs(const std::vector<SourcedGraph>& graphs) {
  std::vector<NavArc> nav;
  for (const SourcedGraph& sg : graphs) {
    if (sg.graph == nullptr) continue;
    NavArcReader reader{sg.source, {}, {}};
    for (const xlink::Arc& arc : sg.graph->arcs()) {
      reader.read(arc,
                  arc.origin == nullptr
                      ? std::string_view()
                      : arc.origin->attribute_ns(kNavExtensionNamespace,
                                                 "context")
                            .value_or(""),
                  nav);
    }
  }
  return nav;
}

std::string node_id_for(std::string_view u) {
  uri::Uri parsed = uri::parse(u);
  if (parsed.fragment && !parsed.fragment->empty()) return *parsed.fragment;
  std::string path = parsed.path;
  if (std::size_t slash = path.rfind('/'); slash != std::string::npos) {
    path = path.substr(slash + 1);
  }
  if (std::size_t dot = path.rfind('.'); dot != std::string::npos) {
    path = path.substr(0, dot);
  }
  // Reverse the two structure-page mappings:
  //   default_structure_href: "index:paintings" -> "paintings-index.xml"
  //   default_href_for:       "index:paintings" -> "index-paintings.html"
  constexpr std::string_view kSuffix = "-index";
  if (path.size() > kSuffix.size() &&
      path.compare(path.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
          0) {
    return "index:" + path.substr(0, path.size() - kSuffix.size());
  }
  constexpr std::string_view kPrefix = "index-";
  if (path.size() > kPrefix.size() &&
      path.compare(0, kPrefix.size(), kPrefix) == 0) {
    return "index:" + path.substr(kPrefix.size());
  }
  return path;
}

std::vector<hypermedia::AccessArc> arcs_from_graph(
    const xlink::TraversalGraph& graph,
    const std::function<std::string(std::string_view uri)>& id_for) {
  std::vector<hypermedia::AccessArc> out;
  for (const xlink::Arc& arc : graph.arcs()) {
    if (arc.arcrole.rfind(kNavArcrolePrefix, 0) != 0) continue;
    hypermedia::AccessArc a;
    a.from = id_for ? id_for(arc.from.uri) : node_id_for(arc.from.uri);
    a.to = id_for ? id_for(arc.to.uri) : node_id_for(arc.to.uri);
    a.role = arc.arcrole.substr(kNavArcrolePrefix.size());
    a.title = arc.title;
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace navsep::core
