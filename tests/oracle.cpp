#include "oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "common/hash.hpp"
#include "core/navigation_aspect.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"

namespace navsep::testing {

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

site::VirtualSite full_build_oracle(const nav::Engine& engine) {
  site::SiteBuildOptions options;
  options.site_base = engine.server().base();
  for (const auto& family : engine.context_families()) {
    options.context_families.push_back(&family);
  }
  // AOT routes author a linkbase artifact exactly like a family; the
  // from-scratch build must author it too, from the same expansion.
  // Lazy routes leave no artifact — they expand inside snapshots only.
  std::vector<hypermedia::ContextFamily> route_families;
  route_families.reserve(engine.routes().size() +
                         engine.landmark_families().size());
  for (const nav::RouteProgram& program : engine.routes()) {
    if (program.compile != nav::RouteCompile::Aot) continue;
    route_families.push_back(engine.route_family(program.name));
  }
  // Landmark families are authored artifacts too (always AOT): the
  // from-scratch build must author them from the same ranked expansion.
  for (const std::string& name : engine.landmark_families()) {
    route_families.push_back(engine.landmark_family(name));
  }
  for (const auto& family : route_families) {
    options.context_families.push_back(&family);
  }
  auto snapshot = hypermedia::MaterializedStructure::snapshot(engine.structure());
  return site::build_separated_site(engine.world(), *snapshot, options);
}

std::map<std::string, std::string> profile_oracle(const nav::Engine& engine,
                                                  const nav::Profile& profile) {
  site::SiteBuildOptions options;
  options.site_base = engine.server().base();
  options.weave_context_tours = true;
  // A profile may name route programs alongside families; both compile
  // modes expand to the same context family here — the oracle is the
  // common truth the AOT artifact and the lazy overlay must both match.
  std::vector<hypermedia::ContextFamily> route_families;
  route_families.reserve(profile.families.size());
  const std::vector<std::string> landmark_names = engine.landmark_families();
  for (const std::string& name : profile.families) {
    bool found = false;
    for (const hypermedia::ContextFamily& family : engine.context_families()) {
      if (family.name() == name) {
        options.context_families.push_back(&family);
        found = true;
      }
    }
    if (!found) {
      const bool is_landmark =
          std::find(landmark_names.begin(), landmark_names.end(), name) !=
          landmark_names.end();
      route_families.push_back(is_landmark ? engine.landmark_family(name)
                                           : engine.route_family(name));
      options.context_families.push_back(&route_families.back());
    }
  }
  site::VirtualSite built =
      site::build_separated_site(engine.world(), engine.structure(), options);
  std::map<std::string, std::string> out;
  for (auto& [path, content] : built.artifacts()) out.emplace(path, content);
  return out;
}

void expect_sites_identical(const site::VirtualSite& actual,
                            const site::VirtualSite& expected) {
  ASSERT_EQ(actual.paths(), expected.paths());
  for (const auto& [path, content] : expected.artifacts()) {
    const std::string* got = actual.get(path);
    ASSERT_NE(got, nullptr) << path;
    EXPECT_EQ(*got, content) << "artifact diverged: " << path;
  }
}

void expect_profile_matches_oracle(const nav::Engine& engine,
                                   const serve::ConcurrentServer& server,
                                   const nav::Profile& profile) {
  const std::map<std::string, std::string> oracle =
      profile_oracle(engine, profile);
  for (const auto& [path, bytes] : oracle) {
    site::Response r = server.get(path, profile.name);
    ASSERT_TRUE(r.ok()) << profile.name << " " << path;
    EXPECT_EQ(*r.body, bytes) << profile.name << " " << path;
  }
  for (const std::string& path : engine.site().paths()) {
    if (oracle.find(path) != oracle.end()) continue;
    EXPECT_FALSE(server.get(path, profile.name).ok())
        << profile.name << " must not see " << path;
  }
}

std::vector<std::string> html_pages(const nav::Engine& engine) {
  std::vector<std::string> pages;
  for (const std::string& path : engine.site().paths()) {
    if (path.size() > 5 && path.rfind(".html") == path.size() - 5) {
      pages.push_back(path);
    }
  }
  return pages;
}

core::ArcChunks chunks_of(const std::vector<core::NavArc>& arcs) {
  std::vector<std::pair<std::string, std::vector<core::NavArc>>> by_source;
  for (const core::NavArc& arc : arcs) {
    auto it = std::find_if(by_source.begin(), by_source.end(),
                           [&](const auto& s) { return s.first == arc.source; });
    if (it == by_source.end()) {
      it = by_source.insert(by_source.end(), {arc.source, {}});
    }
    it->second.push_back(arc);
  }
  core::ArcChunks chunks;
  for (auto& [source, own] : by_source) {
    chunks.push_back(core::make_arc_chunk(source, std::move(own)));
  }
  return chunks;
}

core::PageSliceHashes fold_slice_hashes(const std::vector<core::NavArc>& arcs) {
  core::PageSliceHashes hashes;
  for (const core::NavArc& arc : arcs) {
    auto [it, fresh] = hashes.try_emplace(core::default_href_for(arc.from),
                                          core::kEmptySliceHash);
    it->second = hash_combine(it->second, core::arc_hash(arc));
  }
  return hashes;
}

std::map<std::string_view, std::uint64_t, std::less<>> fold_woven_hashes(
    const std::vector<core::NavArc>& arcs) {
  std::map<std::string_view, std::uint64_t, std::less<>> hashes;
  for (const core::NavArc& arc : arcs) {
    if (!arc.context.empty()) continue;
    auto [it, fresh] = hashes.try_emplace(arc.from, core::kEmptySliceHash);
    it->second = hash_combine(it->second, core::arc_hash(arc));
  }
  return hashes;
}

void expect_same_chunks(const core::ArcChunks& want,
                        const core::ArcChunks& got) {
  ASSERT_EQ(want.size(), got.size()) << "chunk count";
  for (std::size_t i = 0; i < want.size(); ++i) {
    const core::ArcChunk& a = *want[i];
    const core::ArcChunk& b = *got[i];
    EXPECT_EQ(a.source, b.source) << "chunk " << i;
    ASSERT_EQ(a.arcs.size(), b.arcs.size()) << a.source;
    for (std::size_t j = 0; j < a.arcs.size(); ++j) {
      const core::NavArc& x = a.arcs[j];
      const core::NavArc& y = b.arcs[j];
      EXPECT_EQ(std::tie(x.from, x.to, x.role, x.title, x.context, x.source,
                         x.ordinal),
                std::tie(y.from, y.to, y.role, y.title, y.context, y.source,
                         y.ordinal))
          << a.source << " arc " << j;
    }
    EXPECT_EQ(a.slice_hashes, b.slice_hashes) << a.source;
    EXPECT_EQ(a.woven_hashes, b.woven_hashes) << a.source;
  }
}


void expect_same_traversal(const xlink::TraversalGraph& want,
                           const xlink::TraversalGraph& got) {
  ASSERT_EQ(got.resource_uris(), want.resource_uris());
  const auto endpoint = [](const xlink::Endpoint& e) {
    return std::tie(e.is_local, e.uri, e.label, e.role, e.title);
  };
  for (const std::string& uri : want.resource_uris()) {
    const std::vector<const xlink::Arc*> g = got.outgoing(uri);
    const std::vector<const xlink::Arc*> w = want.outgoing(uri);
    ASSERT_EQ(g.size(), w.size()) << uri;
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(endpoint(g[i]->from), endpoint(w[i]->from)) << uri;
      EXPECT_EQ(endpoint(g[i]->to), endpoint(w[i]->to)) << uri;
      EXPECT_EQ(std::tie(g[i]->arcrole, g[i]->title, g[i]->show,
                         g[i]->actuate),
                std::tie(w[i]->arcrole, w[i]->title, w[i]->show,
                         w[i]->actuate))
          << uri;
    }
  }
}

std::unique_ptr<xml::Document> reference_linkbase(
    const hypermedia::AccessStructure& structure,
    const core::LinkbaseOptions& options) {
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
    xattr(go, "arcrole", std::string(core::kNavArcrolePrefix) + a.role);
    xattr(go, "title", a.title);
    xattr(go, "show", "replace");
    xattr(go, "actuate", "onRequest");
  }
  return doc;
}

std::unique_ptr<xml::Document> reference_context_linkbase(
    const hypermedia::ContextFamily& family,
    const std::function<std::string(std::string_view node_id)>& title_of,
    const core::LinkbaseOptions& options) {
  auto data_href = options.data_href ? options.data_href : default_data_href;

  auto doc = std::make_unique<xml::Document>();
  doc->set_base_uri(options.base_uri);
  xml::Element& root = doc->set_root(xml::QName("links"));
  root.set_attribute("xmlns:xlink", std::string(xlink::kNamespace));
  root.set_attribute("xmlns:nav", std::string(core::kNavExtensionNamespace));

  auto xattr = [](xml::Element& e, std::string_view local,
                  std::string_view value) {
    e.set_attribute_ns(
        xml::QName("xlink", std::string(local), std::string(xlink::kNamespace)),
        value);
  };
  auto navattr = [](xml::Element& e, std::string_view local,
                    std::string_view value) {
    e.set_attribute_ns(xml::QName("nav", std::string(local),
                                  std::string(core::kNavExtensionNamespace)),
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
            std::string(core::kNavArcrolePrefix) +
                std::string(hypermedia::roles::kNext));
      xattr(fwd, "title", "Next: " + title_of(ids[i + 1]));
      navattr(fwd, "context", ctx.qualified_name());

      xml::Element& bwd = link.append_element("go");
      xattr(bwd, "type", "arc");
      xattr(bwd, "from", ids[i + 1]);
      xattr(bwd, "to", ids[i]);
      xattr(bwd, "arcrole",
            std::string(core::kNavArcrolePrefix) +
                std::string(hypermedia::roles::kPrev));
      xattr(bwd, "title", "Previous: " + title_of(ids[i]));
      navattr(bwd, "context", ctx.qualified_name());
    }
  }
  return doc;
}

}  // namespace navsep::testing
