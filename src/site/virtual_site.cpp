#include "site/virtual_site.hpp"

#include "aop/weaver.hpp"
#include "core/navigation_aspect.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace navsep::site {

void VirtualSite::put(std::string path, std::string content) {
  // Swap the slot, never mutate the published string: holders of the old
  // shared handle keep the old bytes.
  files_[std::move(path)] =
      std::make_shared<const std::string>(std::move(content));
}

bool VirtualSite::remove(std::string_view path) {
  auto it = files_.find(path);
  if (it == files_.end()) return false;
  files_.erase(it);
  return true;
}

const std::string* VirtualSite::get(std::string_view path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : it->second.get();
}

std::shared_ptr<const std::string> VirtualSite::get_shared(
    std::string_view path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : it->second;
}

std::size_t VirtualSite::total_bytes() const noexcept {
  std::size_t out = 0;
  for (const auto& [_, content] : files_) out += content->size();
  return out;
}

std::vector<std::string> VirtualSite::paths() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, _] : files_) out.push_back(path);
  return out;
}

std::vector<std::pair<std::string, std::shared_ptr<const std::string>>>
VirtualSite::shared_artifacts() const {
  std::vector<std::pair<std::string, std::shared_ptr<const std::string>>> out;
  out.reserve(files_.size());
  for (const auto& [path, content] : files_) out.emplace_back(path, content);
  return out;
}

std::vector<core::Artifact> VirtualSite::artifacts() const {
  std::vector<core::Artifact> out;
  out.reserve(files_.size());
  for (const auto& [path, content] : files_) out.emplace_back(path, *content);
  return out;
}

std::string context_linkbase_path(std::string_view family_name) {
  std::string out = "links-";
  for (char c : family_name) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    out += c;
  }
  return out + ".xml";
}

core::LinkbaseOptions separated_linkbase_options(
    const SiteBuildOptions& options) {
  core::LinkbaseOptions lb;
  lb.base_uri = options.site_base + std::string(kStructureLinkbasePath);
  lb.data_href = [](std::string_view id) {
    return core::default_href_for(id);
  };
  lb.structure_href = [](std::string_view id) {
    return core::default_href_for(id);
  };
  return lb;
}

void author_fixed_artifacts(VirtualSite& out,
                            const museum::MuseumWorld& world) {
  for (auto& [path, content] : world.data_artifacts()) {
    out.put(path, content);
  }
  out.put("presentation.xsl", museum::MuseumWorld::presentation_xslt());
  out.put("museum.css", museum::MuseumWorld::site_css());
}

VirtualSite build_separated_site(const museum::MuseumWorld& world,
                                 const hypermedia::AccessStructure& structure,
                                 const SiteBuildOptions& options) {
  VirtualSite out;
  author_fixed_artifacts(out, world);

  // Authored: the linkbase.
  core::LinkbaseOptions lb = separated_linkbase_options(options);
  auto linkbase = core::build_linkbase(structure, lb);
  out.put(std::string(kStructureLinkbasePath),
          xml::write(*linkbase, {.pretty = true}));

  // Authored: one contextual linkbase per requested family. The parsed
  // documents must outlive the graphs (arc origins point into them) until
  // the combined aspect below has copied the arcs out.
  hypermedia::NavigationalModel nav = world.derive_navigation();
  std::vector<std::unique_ptr<xml::Document>> context_docs;
  std::vector<xlink::TraversalGraph> context_graphs;
  for (const hypermedia::ContextFamily* family : options.context_families) {
    if (family == nullptr) continue;
    core::LinkbaseOptions clb = lb;
    clb.base_uri = options.site_base + context_linkbase_path(family->name());
    context_docs.push_back(core::build_context_linkbase(*family, nav, clb));
    context_graphs.push_back(core::load_linkbase(*context_docs.back()));
    out.put(context_linkbase_path(family->name()),
            xml::write(*context_docs.back(), {.pretty = true}));
  }

  // Derived: the woven pages. One combined aspect carries the structure's
  // arcs plus every context family's tagged tours.
  aop::Weaver weaver;
  std::vector<const xlink::TraversalGraph*> context_graph_ptrs;
  context_graph_ptrs.reserve(context_graphs.size());
  for (const auto& g : context_graphs) context_graph_ptrs.push_back(&g);
  core::NavigationAspectOptions aspect_options;
  if (options.weave_context_tours) {
    for (const hypermedia::ContextFamily* family : options.context_families) {
      if (family != nullptr) {
        aspect_options.woven_context_families.push_back(family->name());
      }
    }
  }
  weaver.register_aspect(core::NavigationAspect::combined(
      core::load_linkbase(*linkbase), context_graph_ptrs, aspect_options));
  core::SeparatedComposer composer(weaver);
  for (auto& page : composer.compose_site(nav, structure)) {
    out.put(std::move(page.path), std::move(page.content));
  }
  return out;
}

VirtualSite build_tangled_site(const museum::MuseumWorld& world,
                               const hypermedia::AccessStructure& structure) {
  VirtualSite out;
  out.put("museum.css", museum::MuseumWorld::site_css());
  hypermedia::NavigationalModel nav = world.derive_navigation();
  core::TangledRenderer renderer(nav, structure);
  for (auto& page : renderer.render_site()) {
    out.put(std::move(page.path), std::move(page.content));
  }
  return out;
}

}  // namespace navsep::site
