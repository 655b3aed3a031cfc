#include "core/linkbase.hpp"

#include <map>

#include "uri/uri.hpp"

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

}  // namespace

std::unique_ptr<xml::Document> build_linkbase(
    const hypermedia::AccessStructure& structure,
    const LinkbaseOptions& options) {
  auto data_href = options.data_href ? options.data_href : default_data_href;
  auto structure_href = options.structure_href ? options.structure_href
                                               : default_structure_href;

  auto doc = std::make_unique<xml::Document>();
  doc->set_base_uri(options.base_uri);

  xml::Element& root = doc->set_root(xml::QName("links"));
  root.set_attribute("xmlns:xlink", std::string(xlink::kNamespace));

  xml::Element& link = root.append_element("structure");
  auto xattr = [](xml::Element& e, std::string_view local,
                  std::string_view value) {
    e.set_attribute_ns(
        xml::QName("xlink", std::string(local), std::string(xlink::kNamespace)),
        value);
  };
  xattr(link, "type", "extended");
  xattr(link, "role", std::string(to_string(structure.kind())));
  xattr(link, "title", structure.name());

  // Locators: every endpoint referenced by any arc, labeled by node id.
  std::vector<hypermedia::AccessArc> arcs = structure.arcs();
  std::map<std::string, std::string> endpoints;  // id -> href, insert-ordered
  std::vector<std::string> endpoint_order;
  auto note_endpoint = [&](const std::string& id, std::string_view title) {
    if (endpoints.find(id) != endpoints.end()) return;
    std::string href =
        is_structure_page(id) ? structure_href(id) : data_href(id);
    endpoints.emplace(id, std::move(href));
    endpoint_order.push_back(id);
    (void)title;
  };
  // Members first (stable, human-friendly order), then structure pages.
  for (const auto& m : structure.members()) note_endpoint(m.node_id, m.title);
  for (const auto& a : arcs) {
    note_endpoint(a.from, "");
    note_endpoint(a.to, "");
  }

  std::map<std::string, std::string> titles;
  for (const auto& m : structure.members()) titles[m.node_id] = m.title;

  for (const std::string& id : endpoint_order) {
    xml::Element& loc = link.append_element("loc");
    xattr(loc, "type", "locator");
    xattr(loc, "href", endpoints[id]);
    xattr(loc, "label", id);
    auto t = titles.find(id);
    xattr(loc, "title", t != titles.end() ? t->second : id);
  }

  // Arcs: one per materialized access arc, in structure order.
  for (const auto& a : arcs) {
    xml::Element& go = link.append_element("go");
    xattr(go, "type", "arc");
    xattr(go, "from", a.from);
    xattr(go, "to", a.to);
    xattr(go, "arcrole", std::string(kNavArcrolePrefix) + a.role);
    xattr(go, "title", a.title);
    xattr(go, "show", "replace");
    xattr(go, "actuate", "onRequest");
  }
  return doc;
}

xlink::TraversalGraph load_linkbase(const xml::Document& doc) {
  return xlink::TraversalGraph::from_linkbase(doc);
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

// --- contextual linkbases ------------------------------------------------------

std::unique_ptr<xml::Document> build_context_linkbase(
    const hypermedia::ContextFamily& family,
    const hypermedia::NavigationalModel& model,
    const LinkbaseOptions& options) {
  return build_context_linkbase(
      family,
      [&model](std::string_view id) {
        const hypermedia::NavNode* node = model.node(id);
        return node != nullptr ? node->title() : std::string(id);
      },
      options);
}

std::unique_ptr<xml::Document> build_context_linkbase(
    const hypermedia::ContextFamily& family,
    const std::function<std::string(std::string_view node_id)>& title_of,
    const LinkbaseOptions& options) {
  auto data_href = options.data_href ? options.data_href : default_data_href;

  auto doc = std::make_unique<xml::Document>();
  doc->set_base_uri(options.base_uri);
  xml::Element& root = doc->set_root(xml::QName("links"));
  root.set_attribute("xmlns:xlink", std::string(xlink::kNamespace));
  root.set_attribute("xmlns:nav", std::string(kNavExtensionNamespace));

  auto xattr = [](xml::Element& e, std::string_view local,
                  std::string_view value) {
    e.set_attribute_ns(
        xml::QName("xlink", std::string(local), std::string(xlink::kNamespace)),
        value);
  };
  auto navattr = [](xml::Element& e, std::string_view local,
                    std::string_view value) {
    e.set_attribute_ns(xml::QName("nav", std::string(local),
                                  std::string(kNavExtensionNamespace)),
                       value);
  };

  for (const hypermedia::NavigationalContext& ctx : family.contexts()) {
    xml::Element& link = root.append_element("tour");
    xattr(link, "type", "extended");
    xattr(link, "role", "GuidedTour");
    xattr(link, "title", ctx.qualified_name());
    navattr(link, "context", ctx.qualified_name());

    for (const std::string& id : ctx.node_ids()) {
      xml::Element& loc = link.append_element("loc");
      xattr(loc, "type", "locator");
      xattr(loc, "href", data_href(id));
      xattr(loc, "label", id);
      xattr(loc, "title", title_of(id));
    }

    const auto& ids = ctx.node_ids();
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
      xml::Element& fwd = link.append_element("go");
      xattr(fwd, "type", "arc");
      xattr(fwd, "from", ids[i]);
      xattr(fwd, "to", ids[i + 1]);
      xattr(fwd, "arcrole",
            std::string(kNavArcrolePrefix) +
                std::string(hypermedia::roles::kNext));
      xattr(fwd, "title", "Next: " + title_of(ids[i + 1]));
      navattr(fwd, "context", ctx.qualified_name());

      xml::Element& bwd = link.append_element("go");
      xattr(bwd, "type", "arc");
      xattr(bwd, "from", ids[i + 1]);
      xattr(bwd, "to", ids[i]);
      xattr(bwd, "arcrole",
            std::string(kNavArcrolePrefix) +
                std::string(hypermedia::roles::kPrev));
      xattr(bwd, "title", "Previous: " + title_of(ids[i]));
      navattr(bwd, "context", ctx.qualified_name());
    }
  }
  return doc;
}

}  // namespace navsep::core
