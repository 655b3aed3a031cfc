#include "site/virtual_site.hpp"

#include "aop/weaver.hpp"
#include "core/linkbase.hpp"
#include "core/navigation_aspect.hpp"

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

core::LinkbaseOptions separated_linkbase_options(std::string_view site_base,
                                                 std::string_view path) {
  core::LinkbaseOptions lb;
  lb.base_uri = std::string(site_base) + std::string(path);
  lb.data_href = [](std::string_view id) {
    return core::default_href_for(id);
  };
  lb.structure_href = lb.data_href;
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

  // Authored: the linkbase, then one contextual linkbase per requested
  // family. Each is drafted once: its text is the artifact, and its
  // chunk carries its arcs (the families' tagged tours) to the weave.
  core::ArcChunks chunks;
  const auto author = [&](const core::LinkbaseDraft& draft, std::string path) {
    out.put(path, core::write_linkbase(draft));
    chunks.push_back(core::expand_linkbase(draft, std::move(path)).chunk);
  };
  author(core::draft_linkbase(structure, structure.arcs(),
                              separated_linkbase_options(
                                  options.site_base, kStructureLinkbasePath)),
         std::string(kStructureLinkbasePath));
  hypermedia::NavigationalModel nav = world.derive_navigation();
  core::NavigationAspectOptions aspect_options;
  for (const hypermedia::ContextFamily* family : options.context_families) {
    if (family == nullptr) continue;
    const std::string path = context_linkbase_path(family->name());
    author(core::draft_context_linkbase(
               *family, nav, separated_linkbase_options(options.site_base, path)),
           path);
    if (options.weave_context_tours) {
      aspect_options.woven_context_families.push_back(family->name());
    }
  }

  // Derived: the woven pages. One aspect carries the structure's arcs
  // plus every context family's tagged tours.
  aop::Weaver weaver;
  weaver.register_aspect(core::NavigationAspect::from_contextual_arcs(
      std::move(chunks), aspect_options));
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
